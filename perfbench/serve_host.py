"""``repro serve`` in a process of its own, for the serve_mixed workload.

    python3 perfbench/serve_host.py [--trace --spans PATH] -- <repro serve arguments>

Runs the CLI's ``serve`` command unchanged.  Commands on standard input:
``reset`` drops the spans recorded so far; ``dump`` prints one JSON line
``{"peak_rss_mb": ..., "summary": ...}`` (and writes the spans to
``--spans``); end of input stops the server through the CLI's own
Ctrl-C path.  With ``--trace`` the layers are wrapped (``spans.py``)
before the server starts.
"""

import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commands(tracer, spans_path: str | None) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "reset" and tracer is not None:
            tracer.clear()
        elif command == "dump":
            summary = None
            if tracer is not None:
                summary = tracer.summary()
                if spans_path:
                    tracer.dump(Path(spans_path))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(json.dumps({"peak_rss_mb": peak, "summary": summary}), flush=True)
    os.kill(os.getpid(), signal.SIGINT)


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    own, serve_args = argv[:split], argv[split + 1:]
    traced = "--trace" in own
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    import repro.cli
    import repro.serve  # noqa: F401  (loaded before wrapping, so its bindings are wrapped)
    from perfbench.spans import Tracer, instrument

    tracer = None
    if traced:
        tracer = Tracer()
        instrument(tracer)
    threading.Thread(target=_commands, args=(tracer, spans_path), daemon=True).start()
    return repro.cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
