"""Pin PruningContentFilter's scoring constants to the reference's
ACTUAL source (content_filter_strategy.py:594-638 — module needs bs4 so
the literals are ast-extracted from the ``__init__`` body). Complements
tests/test_pruning_boundary.py, which pins the arithmetic; this pins
the weight tables and default threshold so silent drift fails loudly.
"""

from __future__ import annotations

import ast

from crawl4ai_ray.stages.content_filters import PruningContentFilter

from _refload import requires_reference

REF_FILE = "/root/reference/crawl4ai/content_filter_strategy.py"


def _ref_init_literals() -> dict:
    tree = ast.parse(open(REF_FILE).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PruningContentFilter":
            out = {}
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    for arg, default in zip(
                        reversed(fn.args.args), reversed(fn.args.defaults)
                    ):
                        try:
                            out["arg:" + arg.arg] = ast.literal_eval(default)
                        except ValueError:
                            pass
                    for stmt in ast.walk(fn):
                        if (
                            isinstance(stmt, ast.Assign)
                            and isinstance(stmt.targets[0], ast.Attribute)
                            and isinstance(stmt.targets[0].value, ast.Name)
                            and stmt.targets[0].value.id == "self"
                        ):
                            try:
                                out[stmt.targets[0].attr] = ast.literal_eval(
                                    stmt.value
                                )
                            except ValueError:
                                pass
            return out
    raise AssertionError("PruningContentFilter not found in reference")


@requires_reference
class TestPruningConstants:
    def test_weight_tables(self):
        ref = _ref_init_literals()
        assert PruningContentFilter.TAG_IMPORTANCE == ref["tag_importance"]
        assert PruningContentFilter.WEIGHTS == ref["metric_weights"]
        assert PruningContentFilter.TAG_WEIGHTS == ref["tag_weights"]

    def test_default_threshold(self):
        ref = _ref_init_literals()
        assert ref["arg:threshold"] == 0.48
        assert PruningContentFilter().threshold == ref["arg:threshold"]
        assert PruningContentFilter().threshold_type == ref["arg:threshold_type"]
