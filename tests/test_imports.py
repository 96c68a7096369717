"""What `import zrp` loads. scipy is loaded inside the functions that use
it, so a run that computes no statistics never pays for it. Replica workers
are plain forks, so no process-pool machinery is loaded either."""

import os
import subprocess
import sys
from pathlib import Path

import zrp


def _loaded_by_import_zrp(tops):
    env = dict(os.environ, PYTHONPATH=str(Path(zrp.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, zrp; print(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.strip()


def test_import_zrp_loads_no_scipy():
    assert _loaded_by_import_zrp(("scipy",)) == "[]"


def test_import_zrp_loads_no_process_pool():
    assert _loaded_by_import_zrp(("concurrent", "multiprocessing")) == "[]"
