import re
from pathlib import Path

import dpshuffle

README = Path(__file__).parent.parent / "README.md"


def test_exports_exactly_the_readme_library_list():
    # Every bare `name` in the README's Library section is one export.
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(\w+)`", section))
    assert len(set(dpshuffle.__all__)) == len(dpshuffle.__all__)
    assert set(dpshuffle.__all__) == documented
    for name in dpshuffle.__all__:
        assert hasattr(dpshuffle, name), name
