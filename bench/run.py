"""matwaring benchmark: the four-, two- and five-term routes, end to end and
per layer, with the benchmark's own correctness gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

--trace 0 (timed run, no wrappers): SETUP_PROCESSES cold starts in fresh
interpreters, one warm-up certificate per size, one pass over the
workload's fixed target list, then repeat rounds over the targets that
passed until S seconds have gone since the start, with the reference kernel
(reference.py) timed between attempts. Prints the end-to-end metrics of
BENCHMARK.json.

--trace 1 (traced run): warm-up, one pass over the target list without
wrappers, then span wrappers are installed and the same list runs once more.
Prints the per-layer metrics: self time and calls per attempted target,
exceptions raised, and the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON report with the environment, failure causes
and the per-layer ranking. `attempted` counts the fixed targets; a target
fails when the route raises or its certificate fails the gate. `correct`
is false only if a certificate that the library returned fails the gate.
"""

import env


if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads, so pin before importing
    # anything that imports numpy.
    pinned = env.pin_threads()
    import harness

    harness.main(harness.parse_args(), pinned)
