"""One cold start: a fresh interpreter imports matwaring and writes its
first certificate text. Prints {"setup_s": ...}.

The clock starts on this file's first statement, so interpreter bootstrap
(tens of milliseconds) is not counted; importing numpy, scipy and matwaring,
parsing f and the first, cold route call plus serialization are.

    python3 bench/cold.py --workload NAME --seed N [--tiny]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import env  # noqa: E402


def main():
    env.pin_threads()
    mw = env.import_matwaring()
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    w = workloads.lookup(args.workload, args.tiny)
    f = mw.freealg.parse(w.poly)
    A = workloads.warmup_targets(w, args.seed)[0]
    cert = getattr(mw.waring, w.route)(f, A, seed=workloads.LIBRARY_SEED)
    mw.serialize.dumps_canonical(
        mw.serialize.certificate_to_json(cert, mw.config.DEFAULT_TOLS))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
