"""What a fresh process loads. `import zrp` loads no scipy module, and scipy
is loaded inside the functions that use it: `scipy.special` only for the
p-values and for the Poisson weights and Gamma tail of `mbar`, while the
fugacity measure and the moment check sum their log weights in numpy. So a
product-start run that asks for no statistic loads no `scipy.special`, and
no forked replica worker carries it. Replica workers are plain forks, so no
process-pool machinery is loaded either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import zrp


def _python(script, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(zrp.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def _loaded_by_import_zrp(tops):
    return _python("import sys, zrp; print(sorted(m for m in sys.modules "
                   f"if m.split('.')[0] in {tops!r}))").strip()


def test_import_zrp_loads_no_scipy():
    assert _loaded_by_import_zrp(("scipy",)) == "[]"


def test_import_zrp_loads_no_process_pool():
    assert _loaded_by_import_zrp(("concurrent", "multiprocessing")) == "[]"


def test_product_start_run_without_statistics_loads_no_scipy_special(tmp_path):
    """The fugacity measure, a sampled box and a two-worker `zrp run` of a
    product-start torus with replay and mass load no scipy.special module;
    the caller runs replicas itself, so it walks the workers' path too."""
    cfg = {"kernel": {"d": 1, "support": [{"z": [1], "p": 0.6},
                                          {"z": [-1], "p": 0.4}]},
           "rate": {"family": "power", "a": 2.0},
           "policy": {"kind": "periodic", "n": 4}, "T": 0.5, "replicas": 4,
           "seed": 3, "initial": {"mode": "product", "phi": 1.0, "n": 4},
           "diagnostics": ["replay", "mass"]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = _python(
        "import sys\n"
        "import numpy as np\n"
        "import zrp\n"
        "from zrp import cli, fugacity_measure, power_rate, sample_box_config\n"
        "m = fugacity_measure(power_rate(3.0), 2.0)\n"
        "sample_box_config(m, 5, 2, np.random.default_rng(0))\n"
        "code = cli.main(['run', '--config', 'cfg.json', '--out', 'out',\n"
        "                 '--threads', '2'])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[:2] == ['scipy', 'special']))\n",
        cwd=tmp_path)
    assert out.splitlines()[-1] == "0 []"
    assert "scipy" in json.loads((tmp_path / "out" / "manifest.json").read_text())
