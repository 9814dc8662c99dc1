import json

import pytest

from workloads import WORKLOADS, generate


def _dump(reqs):
    return json.dumps([[r.label, r.argv, r.files, r.expect_exit, r.oracle, r.counts]
                       for r in reqs], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert _dump(generate(workload, 7)) == _dump(generate(workload, 7))


@pytest.mark.parametrize("workload", ["cli-sums", "cli-families", "cli-exact"])
def test_seed_changes_inputs_not_sizes(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [r.label for r in a] == [r.label for r in b]
    assert [r.counts for r in a] == [r.counts for r in b]
    assert [r.files for r in a] != [r.files for r in b]


def test_expected_points_follow_the_inputs():
    reqs = {r.label: r for r in generate("cli-sums", 3)}
    assert reqs["expsum F_3 n=2 k=6"].counts["expsum.points"] == 728 ** 2
    # the triangle has three edges off the origin, each searched for k <= 5
    nd = reqs["check-nondegenerate F_3 n=2 depth=5"]
    assert nd.counts["laurent.points"] == 3 * sum((3 ** k - 1) ** 2 for k in range(1, 6))
