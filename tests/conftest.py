"""The CLI and demo subprocesses that tests start import swnkms from src/ too.

``pythonpath`` in pyproject.toml covers only this process; the environment
variable set here is inherited by every subprocess.
"""

import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)
