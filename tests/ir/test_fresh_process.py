"""The op, type and pass tables are complete in any process.

Ops and dialect types enter their tables as the dialect modules define
them, and passes as the transforms modules do; a lookup that misses imports
those packages first.  A process that imports only ``repro.ir`` must
therefore read back every module the compiler prints or stores, and resolve
every named pipeline, without ever importing ``repro.transforms`` or
``repro.api`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.ir import parse_pipeline, print_module
from repro.ir.table import encode_module
from repro.transforms import PIPELINES

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIGS = {
    "cpu": ("cpu", {}),
    "cpu-scf": ("cpu", {"lower_to_scf": True}),
    "openmp": ("openmp", {}),
    "gpu-optimised": ("gpu", {"data_strategy": "optimised"}),
    "gpu-host_register": ("gpu", {"data_strategy": "host_register"}),
    "dmp-2x1": ("dmp", {"grid": (2, 1)}),
    "flang-only": ("flang-only", {}),
}

READER = r"""
import json, sys
from pathlib import Path

from repro.ir import PassManager, parse_module, print_module
from repro.ir.table import decode_module

folder = Path(sys.argv[1])
read = 0
for path in sorted(folder.glob("*.mlir")):
    text = path.read_text()
    parsed = parse_module(text)
    decoded = decode_module(json.loads(path.with_suffix(".json").read_text()))
    for module in (parsed, decoded):
        module.verify()
        assert print_module(module) == text, path.name
    read += 1
assert "repro.transforms" not in sys.modules
assert "repro.api" not in sys.modules
scheduled = {}
for name, pipeline in json.loads((folder / "pipelines.json").read_text()).items():
    pm = PassManager().add_pipeline(pipeline)
    scheduled[name] = sorted([p.name for p in pm.passes] + pm.accepted)
print(json.dumps({"read": read, "scheduled": scheduled}))
"""


def test_a_process_importing_only_the_ir_reads_and_resolves_everything(tmp_path):
    session = repro.Session()
    written = 0
    for app, source in (("pw", pw_advection.generate_source(8, niters=1)),
                        ("gs", gauss_seidel.generate_source(8, niters=1))):
        for label, (backend, options) in CONFIGS.items():
            handle = session.lower(source, backend, **options)
            for part, module in (("fir", handle.fir_module),
                                 ("stencil", handle.stencil_module)):
                if module is None:
                    continue
                stem = tmp_path / f"{app}-{label}-{part}"
                stem.with_suffix(".mlir").write_text(print_module(module))
                stem.with_suffix(".json").write_text(json.dumps(encode_module(module)))
                written += 1
    # The dmp dialect defines the op its lowering emits, so a reader needs
    # no pass module to know it.
    assert '"dmp.neighbour_rank"' in (tmp_path / "pw-dmp-2x1-stencil.mlir").read_text()
    (tmp_path / "pipelines.json").write_text(json.dumps(PIPELINES))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", READER, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["read"] == written == 26
    assert report["scheduled"] == {
        name: sorted(entry for entry, _ in parse_pipeline(pipeline))
        for name, pipeline in PIPELINES.items()}
