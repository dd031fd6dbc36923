"""Shared helpers for the test suite."""

import sys
import textwrap

from flexrsa.model import Link, OpticalNetwork


def small_ring(slot_count=6):
    """Pristine 5-node ring plus one chord; lengths in km."""
    links = [
        Link(1, 1, 2, 100.0),
        Link(2, 2, 3, 120.0),
        Link(3, 3, 4, 90.0),
        Link(4, 4, 5, 110.0),
        Link(5, 5, 1, 130.0),
        Link(6, 2, 5, 80.0),
    ]
    full = {l.id: list(range(1, slot_count + 1)) for l in links}
    return OpticalNetwork([1, 2, 3, 4, 5], links, full, slot_count)


def canned_solver(tmp_path, body):
    """Command template writing a canned solution file via python -c."""
    script = tmp_path / "fake_solver.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write(open(sys.argv[3]).read())
            """
        )
    )
    canned = tmp_path / "canned.sol"
    canned.write_text(body)
    return f"cmd:{sys.executable} {script} {{lp_file}} {{sol_file}} {canned}"
