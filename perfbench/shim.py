"""Traced stand-in for `python -m arith_lg.cli`.

    python perfbench/shim.py SPANS.json -- <arith-lg arguments>

Imports the package, wraps the public functions of each layer in every
module that bound them, counts budget charges and hot operators, runs
cli.main on the arguments, and writes spans and counts to SPANS.json
when the command ends.  The exit code is the command's.  No file of the
package is changed; the wrapping lives in this process only.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from tracing import Tracer, bind_everywhere

# layer -> public functions that get a span
SPANNED = {
    "expsum": ("family_sum", "gkz_sum", "zero_count", "tau_summed_trace"),
    "laurent": ("check_nondegenerate",),
    "ffield": ("discrete_table", "embed", "make_field"),
    "cyclotomic": ("char_poly_from_power_sums", "validate_power_sums",
                   "linear_recurrence_reconstruct"),
    "frobdata": ("frobenius_report", "family_l_function", "monodromy_filtration"),
    "polytope": ("normalized_volume", "all_proper_faces"),
    "connalg": ("verify_fts", "verify_metric", "curvature"),
    "exactla": ("rref",),
    "problemio": ("load_json_file", "parse_problem", "parse_connection",
                  "parse_fts_tuple", "parse_nilpotent_matrix",
                  "parse_element_arg", "parse_point_arg", "jsonable"),
}
# operators that are counted, not timed: metric name -> (layer, class)
COUNTED = {
    "cyclotomic.CycloNum.mul": ("cyclotomic", "CycloNum"),
    "mpoly.MPoly.mul": ("mpoly", "MPoly"),
}
# lru_cache objects whose cache_info() is reported
CACHES = ("discrete_table", "make_field")
# spans that own the points of a "torus sum" charge
ENUMERATORS = ("expsum.family_sum", "expsum.gkz_sum", "expsum.zero_count")


def instrument(tracer: Tracer) -> dict[str, list[str]]:
    """Install every wrapper; returns span name -> rebound names."""
    bindings = {}
    for layer, names in SPANNED.items():
        mod = importlib.import_module(f"arith_lg.{layer}")
        for name in names:
            original = getattr(mod, name)
            span = f"{layer}.{name}"
            bindings[span] = bind_everywhere(original, tracer.span(span, original))
    for metric, (layer, cls_name) in COUNTED.items():
        cls = getattr(importlib.import_module(f"arith_lg.{layer}"), cls_name)
        wrapped = tracer.counter(metric + ".calls", cls.__mul__)
        cls.__mul__ = cls.__rmul__ = wrapped
    budget = importlib.import_module("arith_lg.budget")
    original_charge = budget.charge

    def charge(description, required, *args, **kwargs):
        tracer.counts["budget.charge.calls"] += 1
        tracer.counts[f"charge:{description}"] += required
        if description == "torus sum":
            owner = tracer.innermost(ENUMERATORS)
            if owner is not None:
                owner[4] += required
        return original_charge(description, required, *args, **kwargs)

    bindings["budget.charge"] = bind_everywhere(original_charge, charge)
    return bindings


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS.json -- <arith-lg arguments>")
    t0 = time.perf_counter()
    import arith_lg.cli as cli
    import_s = time.perf_counter() - t0
    importlib.import_module("arith_lg.acceptance")  # bound lazily by the CLI
    ffield = importlib.import_module("arith_lg.ffield")
    caches = {name: getattr(ffield, name) for name in CACHES}
    tracer = Tracer()
    instrument(tracer)
    code = 1
    try:
        code = tracer.span("cli.main", cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        doc = {
            "exit": code,
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "caches": {name: cache.cache_info()._asdict()
                       for name, cache in caches.items()},
        }
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
