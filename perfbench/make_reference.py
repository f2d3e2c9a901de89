"""Write perfbench/reference.json from the outputs of the current program.

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference holds the expected outputs the checks compare against.  It
was written once from the commit that introduced the benchmark; rerun it
only to re-derive that reference, never to make a later change pass.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads
from child import run_cli

ROOT = workloads.HERE.parent


def main() -> None:
    ref: dict = {w: {} for w in workloads.WORKLOADS}
    tmp = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for scale in workloads.SCALES:
            _, _, ((rc, out),) = run_cli(workloads.cli_commands("sweep5-cold", scale))
            rep = json.loads(out)
            ref["sweep5-cold"][scale] = {
                "exit_code": rc,
                "outcome": rep["outcome"],
                "tuples": len(rep["payload"]["tuples"]),
                "rational_pass_tuples": len(rep["payload"]["rational_pass_tuples"]),
            }
            _, _, ((rc, out),) = run_cli(workloads.cli_commands("sweep3-warm", scale, str(tmp / scale)))
            if rc != 0:
                raise SystemExit(f"the {scale} size-3 sweep exited {rc}")
            ref["sweep3-warm"][scale] = workloads.classify_sweep(json.loads(out))
            _, _, outputs = run_cli(workloads.cli_commands("extend-138", scale))
            exts = {tuple(json.loads(out)["payload"]["extensions"]) for _, out in outputs}
            if len(exts) != 1:
                raise SystemExit(f"the extension rings disagree: {exts}")
            ref["extend-138"][scale] = {"extensions": list(exts.pop())}
            ref["certify"][scale] = {
                "lambda_below": "19/10",
                "k_constant": 4728,
                "chain_contradiction_at": 43,
                "chain_no_contradiction_at": 42,
            }
    finally:
        shutil.rmtree(tmp)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
