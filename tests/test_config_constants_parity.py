"""Pin shared constants to the reference's config.py (direct-loaded —
it imports standalone) and to content_scraping_strategy.py literals
(ast-extracted; that module needs lxml so it cannot be imported).

Guards against silent drift of the attribute-keep set, only-text tag
set, social-media exclusion list and image score threshold that the
cleaned_html/link-exclusion parity oracles depend on.
"""

from __future__ import annotations

import ast
import importlib.util

from crawl4ai_ray.functions.domclean import (
    IMPORTANT_ATTRS,
    ONLY_TEXT_ELIGIBLE_TAGS,
)
from crawl4ai_ray.stages.extract import IMAGE_SCORE_THRESHOLD, SOCIAL_MEDIA_DOMAINS

from _refload import requires_reference

REF_CONFIG = "/root/reference/crawl4ai/config.py"
REF_CSS = "/root/reference/crawl4ai/content_scraping_strategy.py"


def _load_ref_config():
    spec = importlib.util.spec_from_file_location("_ref_config", REF_CONFIG)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module_literal(path: str, name: str):
    tree = ast.parse(open(path).read())
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == name:
                    return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


@requires_reference
class TestConfigConstantsParity:
    def test_important_attrs(self):
        ref = _load_ref_config()
        assert IMPORTANT_ATTRS == frozenset(ref.IMPORTANT_ATTRS)

    def test_only_text_eligible_tags(self):
        ref = _load_ref_config()
        assert ONLY_TEXT_ELIGIBLE_TAGS == frozenset(ref.ONLY_TEXT_ELIGIBLE_TAGS)

    def test_social_media_domains(self):
        ref = _load_ref_config()
        assert set(SOCIAL_MEDIA_DOMAINS) == set(ref.SOCIAL_MEDIA_DOMAINS)

    def test_image_score_threshold(self):
        ref = _load_ref_config()
        assert IMAGE_SCORE_THRESHOLD == ref.IMAGE_SCORE_THRESHOLD
