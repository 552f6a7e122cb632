"""README's Library example runs as shown, so a name it uses cannot go
without the example going too."""

import re

from conftest import REPO_ROOT


def test_library_example_runs_and_matches_its_comment(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    claimed = re.search(r"^network_capacity\(net\) +# (\d+\.\d{4}) ", example, re.M).group(1)
    monkeypatch.chdir(REPO_ROOT)  # the example loads its scenario by a relative path
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert f"{namespace['network_capacity'](namespace['net']):.4f}" == claimed
