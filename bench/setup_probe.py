"""Cold-start probe: import wqsc and finish one CLI call in a fresh interpreter.

    python3 bench/setup_probe.py '<argv as a JSON list>'

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and the thread variables pinned.  It prints one JSON line: the
seconds from before ``import wqsc.cli`` to the end of the call (numpy's
import included, as every command-line user pays it), the call's exit
code, its captured stdout, and the path wqsc was imported from.
"""

import contextlib
import io
import json
import sys
import time

argv = json.loads(sys.argv[1])
start = time.perf_counter()
import wqsc.cli  # noqa: E402  (the import is what is being timed)

captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    exit_code = wqsc.cli.main(argv)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "exit": exit_code, "stdout": captured.getvalue(),
                  "module": wqsc.cli.__file__}))
