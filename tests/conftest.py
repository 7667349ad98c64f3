"""Shared pytest hooks: a one-line verdict per acceptance criterion, and
Hypothesis examples drawn the same way on every run."""

from hypothesis import settings

# Each test keeps its own max_examples and deadline; the profile only
# fixes the draws, so tier-1 runs the same examples every time.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

CRITERIA = {
    "test_c01": "01 threshold closed forms",
    "test_c02": "02 sigmoid-diagram thresholds",
    "test_c03": "03 triangular shock speeds",
    "test_c04": "04 greenshields shock speeds",
    "test_c05": "05 startup wave slopes",
    "test_c06": "06 discharge max acceleration",
    "test_c07": "07 red-light step sizes",
    "test_c08": "08 scheme failure modes",
    "test_c09": "09 anticipation model correction",
    "test_c10": "10 equivalence properties",
    "test_c11": "11 string stability",
    "test_c12": "12 instability analyzers",
    "test_c13": "13 oracle self-consistency",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for outcome, status in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            prefix = "_".join(name.split("_")[:2])
            if prefix not in CRITERIA:
                continue
            if results.get(prefix) != "FAIL":
                results[prefix] = status
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for prefix in sorted(CRITERIA):
        if prefix in results:
            terminalreporter.write_line(
                f"criterion {CRITERIA[prefix]}: {results[prefix]}"
            )
