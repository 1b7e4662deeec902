import sys


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scoreboard after the run: per criterion, its
    verdict and the seconds its checks took."""
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "_RESULTS", None):
        return
    write = terminalreporter.write_line
    write("")
    write("acceptance criteria")
    for number, name, claim in mod.CRITERIA:
        verdict = mod.verdict(name) or "NOT RUN"
        seconds = mod._SECONDS.get(name)
        timing = "" if seconds is None else f" in {seconds:.2f} s"
        write(f"  {number:2d} [{name}] {claim}: {verdict}{timing}")
