"""One measured process: a fresh interpreter that runs one CLI sweep.

Usage: ``python3 perfbench/child.py MODE RESULT_JSON -- <randers-foliate args>``
from the root of a checkout, with ``src`` on ``PYTHONPATH``.

MODE is
  ``setup``   import the package and resolve the CLI config, nothing more;
  ``sweep``   the same, then one full ``cli.main`` run that writes the report;
  ``traced``  as ``sweep``, with spans around every layer (see tracer.py).

``setup_s`` times the package import (which builds the formula registry)
plus config resolution.  ``sweep_s`` times ``cli.main`` from the resolved
config to the report on disk; ``main`` parses the arguments again, which
costs about a millisecond.  Peak RSS is this process's own high-water mark.
"""

import json
import os
import resource
import sys
from time import perf_counter


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    mode, result_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "sweep", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    t0 = perf_counter()
    from randers_foliations import cli

    config = cli.build_config(argv)
    setup_s = perf_counter() - t0
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"imported {cli.__file__}, expected a module under {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "setup":
        result.update(_versions())
    elif mode == "sweep":
        t1 = perf_counter()
        result["exit_code"] = cli.main(argv)
        result["sweep_s"] = perf_counter() - t1
    else:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        result["exit_code"] = tr.run_root(cli.main, argv)
        result.update(tr.summary())
    if config.out is not None and mode != "setup" and not os.path.exists(config.out):
        print(f"no report at {config.out}", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
