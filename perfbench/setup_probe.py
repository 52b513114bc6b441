"""One set-up sample: import ``qmedr.cli`` and complete one cold report.

    python3 perfbench/setup_probe.py <qmedr compare arguments>

Prints one JSON line with the import time and the report's exit code. The
caller times the whole interpreter, from start to exit.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qmedr import cli

    import_s = time.perf_counter() - start
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[1:])
    print(json.dumps({"import_s": import_s, "rc": rc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
