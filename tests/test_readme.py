"""README's Library example runs as shown, and every library call its text
names exists, so a name README uses cannot go without README changing too."""

import re

import cachecap

from conftest import REPO_ROOT


def test_library_example_runs_and_matches_its_comment(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    claimed = re.search(r"^network_capacity\(net\) +# (\d+\.\d{4}) ", example, re.M).group(1)
    monkeypatch.chdir(REPO_ROOT)  # the example loads its scenario by a relative path
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert f"{namespace['network_capacity'](namespace['net']):.4f}" == claimed


def test_every_snake_case_call_in_the_text_is_a_package_name():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    calls = set(re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)\(", readme))
    assert "node_solution" in calls  # the pattern still finds what it checks
    assert sorted(name for name in calls if not hasattr(cachecap, name)) == []
