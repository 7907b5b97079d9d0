"""The service under test, in a process of its own.

Usage: ``python3 perfbench/server.py CONFIG.json``.  The config names the
log files, the explanation config and the set-up questions.  The process
loads and registers every log (``LogCatalog`` -> ``PerfXplainService``),
asks the set-up questions, starts ``PerfXplainHTTPServer`` on a free port
and prints ``READY {...}``.  It then obeys one command per stdin line:

* ``reset`` -- (traced runs) forget spans and counters, answer ``OK {...}``;
* ``stop`` (or end of input) -- stop serving, write the spans if traced,
  print ``DONE {...}`` with the peak resident memory, and exit.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _reply(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    tracer = None
    if config.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    from repro.core.explainer import PerfXplainConfig
    from repro.service import LogCatalog, PerfXplainHTTPServer, PerfXplainService
    from repro.service.protocol import ErrorResponse, parse_request

    catalog = LogCatalog(config=PerfXplainConfig(pair_workers=config["pair_workers"]))
    for name, path in config["logs"].items():
        catalog.register_path(name, ROOT / path)
        log = catalog.log(name)
        if config.get("chunks") and name == "paper":
            log.configure_blocks(**config["chunks"])
    service = PerfXplainService(catalog)
    for body in config["warm"]:
        response = service.execute(parse_request({**body, "type": "query"}))
        if isinstance(response, ErrorResponse):
            print(f"set-up question failed: {response.message}", file=sys.stderr)
            service.close()
            return 1
    http = PerfXplainHTTPServer(service).start()
    ingest = sum(s[5] - s[4] for s in tracer.spans if s[3] == "ingest.load") if tracer else 0.0
    _reply("READY", {"port": http.port, "ingest_load_s": ingest})
    chunks_at_reset: dict = {}
    for line in sys.stdin:
        command = line.strip()
        if command == "reset" and tracer is not None:
            chunks_at_reset = tracer.reset()
            _reply("OK", {})
        elif command == "stop":
            break
    http.stop()
    service.close()
    done = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        chunks = tracer.chunk_totals()
        Path(config["spans"]).write_text(json.dumps({
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "queue_wait_s": tracer.queue_wait,
            "waiting": sorted(tracer.waiting),
            "chunkstore": {k: v - chunks_at_reset.get(k, 0) for k, v in chunks.items()},
        }))
    _reply("DONE", done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
