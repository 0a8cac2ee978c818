"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs tiny sizes of every workload on the default and the alternate seed,
untraced and traced, and checks that:

* no operation fails;
* traced and untraced runs attempt the same operations;
* the metrics printed are exactly those BENCHMARK.json names, and set-up
  time is positive (it includes one probe that sets up the full-size
  workload in a fresh process);
* a corrupted expected value is counted as a failed operation, not raised.

Exits 0 when every check holds.
"""

import sys

import run
from workloads import WORKLOADS


def main() -> int:
    bench = run.load_benchmark()
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for name, cls in WORKLOADS.items():
        for seed in (run.DEFAULT_SEED, 2):
            plain, plain_rec = run.measure(cls(tiny=True), seed, 0, trace=False)
            traced, traced_rec = run.measure(cls(tiny=True), seed, 0, trace=True)
            where = f"{name} seed {seed}"
            expect(plain["failed"] == 0, f"{where}: untraced run failed {plain_rec['failed_ops']}")
            expect(traced["failed"] == 0, f"{where}: traced run failed {traced_rec['failed_ops']}")
            ops = plain_rec["ops_per_pass"]
            expect(ops == traced_rec["ops_per_pass"], f"{where}: traced and untraced op lists differ")
            expect(plain["attempted"] == ops, f"{where}: untraced run attempted {plain['attempted']}")
            expect(traced["attempted"] == 3 * ops, f"{where}: traced run attempted {traced['attempted']}")
            expect(set(plain["metrics"]) == e2e_names, f"{where}: end-to-end metric names differ")
            expect(plain["metrics"]["setup_s"]["value"] > 0, f"{where}: setup_s not positive")
            expect(set(traced["metrics"]) == layer_names, f"{where}: per-layer metric names differ")

        ops = cls(tiny=True).setup(run.DEFAULT_SEED)
        ops[0].expected = "corrupted"
        _, failed, _ = run.run_pass(ops)
        expect(failed == [ops[0].label], f"{name}: corrupted expectation gave failures {failed}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
