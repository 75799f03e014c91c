"""Run one abx CLI request in this fresh interpreter, as the ``abx``
console script would, from the checkout's own ``src``.

    python3 perfbench/child.py [abx flags] TASK
    python3 perfbench/child.py --ready     # import only, then exit 0

Exit code 97 means ``abx`` resolved to a copy outside this checkout.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import abx  # noqa: E402
from abx.cli import main  # noqa: E402

if os.path.dirname(os.path.abspath(abx.__file__)) != os.path.join(SRC, "abx"):
    print(f"abx imported from {abx.__file__}, not from {SRC}", file=sys.stderr)
    sys.exit(97)
if sys.argv[1:] == ["--ready"]:
    sys.exit(0)
sys.exit(main(sys.argv[1:]))
