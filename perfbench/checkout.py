"""Bind the benchmark to the checkout it lives in.

The benchmark imports flexrsa from the checkout's `src/` and exports the same
directory as PYTHONPATH, so the builtin solver's `python -m flexrsa.lp_driver`
subprocess imports the same code. Temporary files go to a work directory
inside the checkout.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


class CheckoutError(RuntimeError):
    pass


def bind(run_name: str) -> str:
    """Point imports, subprocesses and temporary files at this checkout.

    Returns a fresh work directory for the run; the caller removes it.
    """
    if not os.path.isfile(os.path.join(SRC, "flexrsa", "__init__.py")):
        raise CheckoutError(f"no flexrsa sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    workdir = os.path.join(WORK, f"{run_name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    return workdir


def release(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass
