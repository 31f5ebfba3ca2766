"""README.md names only what the package has.

Every backticked `module.name` whose module is one of the package's, and
every `xiverify.name`, must resolve to an attribute, so a rename or a
deletion that leaves the README behind fails here.
"""

import importlib
import pathlib
import pkgutil
import re

import xiverify

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(xiverify.__path__)}


def _readme_names():
    """(span, owner, attribute) for every package name in a code span."""
    for module in MODULES:
        importlib.import_module("xiverify." + module)
    for span in re.findall(r"`([^`\n]+)`", README.read_text("utf-8")):
        m = re.match(r"(\w+)\.(\w+)", span)
        if m and m.group(1) == "xiverify":
            yield span, xiverify, m.group(2)
        elif m and m.group(1) in MODULES:
            yield (span, importlib.import_module("xiverify." + m.group(1)),
                   m.group(2))


def test_readme_names_resolve():
    names = list(_readme_names())
    assert len(names) >= 10
    missing = [span for span, owner, attr in names
               if not hasattr(owner, attr)]
    assert missing == []
