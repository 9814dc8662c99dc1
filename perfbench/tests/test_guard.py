import sys
import time

import run


def test_timeout_kills_the_request(tmp_path):
    t0 = time.perf_counter()
    o = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert o.status == "timeout" and o.exit is None
    assert time.perf_counter() - t0 < 10


def test_memory_cap_is_a_failed_request(tmp_path):
    o = run.spawn([sys.executable, "-c", "x = bytearray(2 << 30)"], tmp_path, 30)
    assert o.status == "memcap" and o.exit != 0


def test_past_the_deadline_nothing_runs(tmp_path):
    assert run.spawn([sys.executable, "-c", "pass"], tmp_path, 0).status == "skipped"


def test_a_clean_request_is_ok(tmp_path):
    o = run.spawn([sys.executable, "-c", "print('{}')"], tmp_path, 30)
    assert (o.status, o.exit, o.stdout.strip()) == ("ok", 0, "{}")
