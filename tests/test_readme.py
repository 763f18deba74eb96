import re

from conftest import TESTS_DIR

README = TESTS_DIR.parent / "README.md"


def test_the_library_example_runs():
    # the README's one python block, run as printed, so that a public name
    # it uses cannot be removed or renamed while the README still shows it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
