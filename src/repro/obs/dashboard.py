"""Live fleet dashboard: stdlib HTTP server over a results store.

hypofuzz's dashboard pattern without the dependencies: the fleet writes
append-only segments into a :class:`~repro.obs.store.ResultsStore`, and
this server *polls the store* — it holds no live references into the
runtime, so it can watch a fleet in another process, a finished store, or
a store being written by several machines onto a shared filesystem.

Endpoints (all GET):

- ``/``             — HTML page that polls the JSON API and renders arm
  curves (inline SVG), the fleet summary, health and the E-BUGS table.
- ``/api/summary``  — :meth:`StoreAggregates.as_dict` plus classified
  ``bugs`` rows: per-arm downsampled coverage curves, fleet union %,
  worker utilisation, retry/quarantine health, per-phase wall time.
- ``/api/events``   — the most recent linearized events
  (``?tail=N``, default 100) for tail -f-style debugging.

Aggregates are recomputed at most every ``refresh_seconds`` (default 1 s)
no matter how many clients poll, keeping the read path cheap while a
fleet writes.  ``python -m repro.obs.dashboard --store DIR`` serves
standalone; ``--report`` prints the text report instead (headless boxes).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.analysis.bugs import classify_bug_rows
from repro.obs.store import ResultsStore

_PAGE = """<!doctype html>
<html><head><meta charset="utf-8"><title>fleet dashboard</title>
<style>
 body { font-family: ui-monospace, monospace; margin: 1.5em; background: #111;
        color: #ddd; }
 h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.4em; }
 table { border-collapse: collapse; margin-top: .4em; }
 th, td { border: 1px solid #444; padding: .25em .6em; text-align: left; }
 th { background: #222; }
 .quarantined { color: #f66; }
 svg { background: #181818; border: 1px solid #444; margin-top: .4em; }
 #meta { color: #9a9; }
</style></head><body>
<h1>fleet dashboard</h1>
<div id="meta">loading&hellip;</div>
<svg id="curves" width="640" height="240" viewBox="0 0 640 240"></svg>
<div id="legend"></div>
<h2>arms</h2><table id="arms"></table>
<h2>health</h2><table id="health"></table>
<h2>phases</h2><table id="phases"></table>
<h2>E-BUGS</h2><table id="bugs"></table>
<script>
const COLORS = ["#6cf","#fc6","#6f9","#f6c","#9cf","#cf6","#c9f","#fc9"];
function fill(id, headers, rows) {
  const table = document.getElementById(id);
  table.innerHTML = "<tr>" + headers.map(h => `<th>${h}</th>`).join("") +
    "</tr>" + rows.map(r => "<tr>" +
      r.map(c => `<td>${c}</td>`).join("") + "</tr>").join("");
}
function draw(arms) {
  const svg = document.getElementById("curves");
  const W = 640, H = 240, PAD = 6;
  let maxT = 1, maxC = 1;
  for (const a of arms) for (const [t, , c] of a.curve) {
    maxT = Math.max(maxT, t); maxC = Math.max(maxC, c);
  }
  svg.innerHTML = arms.map((a, i) => {
    const pts = a.curve.map(([t, , c]) =>
      `${PAD + (W - 2 * PAD) * t / maxT},` +
      `${H - PAD - (H - 2 * PAD) * c / maxC}`).join(" ");
    return `<polyline fill="none" stroke="${COLORS[i % COLORS.length]}"` +
           ` stroke-width="1.5" points="${pts}"/>`;
  }).join("");
  document.getElementById("legend").innerHTML = arms.map((a, i) =>
    `<span style="color:${COLORS[i % COLORS.length]}">&#9644; ${a.name}` +
    ` ${a.coverage_percent.toFixed(2)}%</span>`).join(" &nbsp; ");
}
async function refresh() {
  try {
    const agg = await (await fetch("api/summary")).json();
    document.getElementById("meta").textContent =
      `union ${agg.union_percent.toFixed(2)}% of ${agg.universe}` +
      ` | tests ${agg.total_tests} | mode ${agg.mode || "-"}` +
      ` | slots ${agg.worker_slots}` +
      (agg.runs  // no fleet_started: a standalone campaign has no timing
        ? ` | utilisation ${(100 * agg.utilisation).toFixed(0)}%` +
          ` | wall ${agg.wall_seconds.toFixed(1)}s`
        : " | utilisation n/a | wall n/a") +
      (agg.live ? " | LIVE" : "");
    draw(agg.arms);
    fill("arms", ["arm", "tests", "cov %", "busy s", "slices", "state"],
      agg.arms.map(a => [a.name, a.tests, a.coverage_percent.toFixed(2),
        a.busy_seconds.toFixed(1), a.slices,
        a.quarantined ? '<span class="quarantined">quarantined</span>' : "ok"]));
    fill("health", ["retries", "timeouts", "pool rebuilds", "quarantined"],
      [[agg.health.retries, agg.health.timeouts, agg.health.pool_rebuilds,
        agg.health.quarantined.length]]);
    fill("phases", ["generation s", "execution s", "fold s"],
      [[agg.phases.generation_seconds.toFixed(2),
        agg.phases.execution_seconds.toFixed(2),
        agg.phases.fold_seconds.toFixed(2)]]);
    fill("bugs", ["bug", "kind", "campaigns", "detail"],
      agg.bugs.map(b => [b.bug, b.kind, b.campaigns.join(", "), b.detail]));
  } catch (e) { document.getElementById("meta").textContent = `error: ${e}`; }
}
refresh(); setInterval(refresh, 2000);
</script></body></html>
"""


class DashboardServer:
    """Serve one results store (see module docstring).

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction — the smoke test and example CLIs do).  :meth:`start`
    serves from a daemon thread so a fleet can run in the foreground;
    use as a context manager for deterministic shutdown.
    """

    def __init__(self, store: ResultsStore | str | Path,
                 host: str = "127.0.0.1", port: int = 8080,
                 refresh_seconds: float = 1.0) -> None:
        self.store = (store if isinstance(store, ResultsStore)
                      else ResultsStore(store))
        self.refresh_seconds = refresh_seconds
        self._lock = threading.Lock()
        self._cached: dict | None = None
        self._cached_at = 0.0
        dashboard = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                pass  # keep the fleet's stdout clean

            def do_GET(self) -> None:
                url = urlparse(self.path)
                if url.path in ("/", "/index.html"):
                    self._send(200, "text/html; charset=utf-8",
                               _PAGE.encode())
                elif url.path == "/api/summary":
                    payload = dashboard.summary()
                    self._send(200, "application/json",
                               json.dumps(payload).encode())
                elif url.path == "/api/events":
                    query = parse_qs(url.query)
                    tail = int(query.get("tail", ["100"])[0])
                    events = dashboard.store.read_events()
                    payload = [json.loads(e.to_json())
                               for e in events[-max(0, tail):]]
                    self._send(200, "application/json",
                               json.dumps(payload).encode())
                else:
                    self._send(404, "text/plain", b"not found\n")

            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Cache-Control", "no-store")
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}/"

    def summary(self) -> dict:
        """The ``/api/summary`` payload, recomputed at most once per
        ``refresh_seconds`` regardless of client count."""
        with self._lock:
            now = time.monotonic()
            if (self._cached is None
                    or now - self._cached_at >= self.refresh_seconds):
                payload = self.store.aggregate().as_dict()
                payload["bugs"] = classify_bug_rows(payload)
                self._cached = payload
                self._cached_at = now
            return self._cached

    def start(self) -> "DashboardServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-dashboard", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Serve (or print) a fleet results store.")
    parser.add_argument("--store", required=True, help="store directory")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--report", action="store_true",
                        help="print the text report and exit (no server)")
    args = parser.parse_args(argv)

    store = ResultsStore(args.store, create=False)
    if args.report:
        from repro.analysis.report import store_report

        print(store_report(store.aggregate()))
        return 0
    with DashboardServer(store, host=args.host, port=args.port) as server:
        print(f"dashboard: {server.url} (ctrl-c to stop)")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
