"""The library example in README.md runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_example():
    """The README's python block, and its commented lines as {code: comment}."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    claims = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            claims[code.strip()] = comment.strip()
    return block, claims


def test_the_readme_library_example_prints_what_its_comments_say():
    block, claims = readme_example()
    namespace = {}
    exec(block, namespace)

    def run(code):
        return eval(code, namespace)

    roots = run("rep.roots")
    shown = [text.rstrip(".") for text in claims["rep.roots"].strip("()").split(", ")]
    assert shown == ["0.0710989", "2.8530454", "7.9310732"]
    assert len(roots) == 3 and all(repr(r).startswith(s) for r, s in zip(roots, shown))

    assert run("rep.stability") == ast.literal_eval(claims["rep.stability"])
    assert run("rep.stability") == ("stable", "unstable", "stable")

    assert claims["iterate_map(5.0, w).matched_root"] == "basin of the upper root"
    assert run("iterate_map(5.0, w).matched_root") == roots[-1]

    eta1, eta2 = run("critical_points(w).eta1, critical_points(w).eta2")
    assert eta1 < 1.0 < eta2    # the thresholds admit the three roots

    assert claims["kolmogorov_consistency_check(params, h)"] == "~1e-16"
    assert run("kolmogorov_consistency_check(params, h)") < 1e-12
