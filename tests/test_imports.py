"""What `import zrp` loads. scipy is loaded inside the functions that use
it, so a run that computes no statistics never pays for it."""

import os
import subprocess
import sys
from pathlib import Path

import zrp


def test_import_zrp_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(zrp.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, zrp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
