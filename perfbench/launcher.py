"""Server process for the traced service runs.

Installs the layer span wrappers in this process, then runs the unmodified
``repro serve`` entry point (:func:`repro.service.app.run_service`).  When
the server drains and returns (SIGTERM), the recorded spans are written to
``--spans-out`` as a JSON list of span records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_checkout  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()
    require_checkout()
    from repro.service.app import run_service
    from tracing import LayerTracer, install_service_layers

    tracer = LayerTracer("server")
    install_service_layers(tracer)
    try:
        run_service(data_dir=args.data_dir, port=0)
    finally:
        tracer.uninstall()
        Path(args.spans_out).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    main()
