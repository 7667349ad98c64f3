"""The hand-run mutation probe's list (tests/mutants.py) still names the code."""
from mutants import MUTANTS, source


def test_every_mutant_old_text_occurs_once():
    # A mutant whose old text moved, or now occurs twice, would probe nothing.
    counts = {name: source(path).count(old) for name, (path, old, _, _) in MUTANTS.items()}
    assert counts == dict.fromkeys(MUTANTS, 1)
