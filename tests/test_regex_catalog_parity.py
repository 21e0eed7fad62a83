"""Pin the regex extraction catalog to the reference's ACTUAL source.

``RegexExtractionStrategy`` (reference extraction_strategy.py:2558-2727)
cannot be imported standalone (its module pulls torch/bs4 at import
time), so the class's literal members — ``DEFAULT_PATTERNS``, the
``_B`` IntFlag member list, ``_FLAGS`` — are ast-extracted from the
source file and compared byte-for-byte against ours, and the
``extract`` loop semantics (finditer over the compiled catalog in
insertion order, one row per match) are re-executed from the extracted
literals and diffed against ``RegexExtractor.extract``.
"""

from __future__ import annotations

import ast
import random
import re

from crawl4ai_ray.stages.regex_extract import (
    DEFAULT_PATTERNS,
    _FLAGS,
    Pattern,
    RegexExtractor,
)

from _refload import requires_reference

REF_FILE = "/root/reference/crawl4ai/extraction_strategy.py"


def _ref_class_body():
    tree = ast.parse(open(REF_FILE).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RegexExtractionStrategy":
            return node
    raise AssertionError("RegexExtractionStrategy not found in reference")


def _ref_catalog() -> dict:
    cls = _ref_class_body()
    for stmt in cls.body:
        targets = getattr(stmt, "targets", None) or (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "DEFAULT_PATTERNS":
                return ast.literal_eval(stmt.value)
    raise AssertionError("DEFAULT_PATTERNS not found")


def _ref_flag_members() -> list:
    cls = _ref_class_body()
    for stmt in cls.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == "_B":
            names = []
            for s in stmt.body:
                if isinstance(s, ast.Assign) and isinstance(s.targets[0], ast.Name):
                    name = s.targets[0].id
                    if name not in ("NOTHING", "ALL"):
                        names.append(name)
            return names
    raise AssertionError("_B not found")


class TestRegexCatalogParity:
    @requires_reference
    def test_default_patterns_byte_equal(self):
        assert DEFAULT_PATTERNS == _ref_catalog()

    @requires_reference
    def test_flag_members_and_order(self):
        ref_names = _ref_flag_members()
        our_names = [p.name for p in Pattern]
        assert our_names == ref_names
        # label -> flag mapping used by both constructors agrees
        for label in DEFAULT_PATTERNS:
            assert label.upper() in ref_names

    def test_flags_value(self):
        # reference: _FLAGS = re.IGNORECASE | re.MULTILINE (:2668)
        assert _FLAGS == (re.IGNORECASE | re.MULTILINE)

    @requires_reference
    def test_extract_differential(self):
        catalog = _ref_catalog()
        ref_compiled = {
            lbl: re.compile(rx, re.IGNORECASE | re.MULTILINE)
            for lbl, rx in catalog.items()
        }

        def ref_extract(url, content):
            out = []
            for label, cre in ref_compiled.items():
                for m in cre.finditer(content):
                    out.append(
                        {
                            "url": url,
                            "label": label,
                            "value": m.group(0),
                            "span": [m.start(), m.end()],
                        }
                    )
            return out

        seeds = [
            "Contact bob+spam@ex-ample.co.uk or call +1 (555) 123-4567.",
            "Visit https://a.example/x?q=1 from 10.0.0.1 at 14:30:15.",
            "UUID 123e4567-e89b-12d3-a456-426614174000 costs $1,234.56 (12.5%).",
            "Ship to 90210-1234 or SW1A 1AA by 2026-08-17 or 8/17/26.",
            "#ff0099 @handle #tag-1 DE44500105175407324931 4111111111111111",
            "aa:bb:cc:dd:ee:ff FE80:0000:0000:0000:0202:B3FF:FE1E:8329",
        ]
        rng = random.Random(42)
        for i in range(200):
            text = " ".join(rng.sample(seeds, rng.randint(1, len(seeds))))
            ours = RegexExtractor().extract(f"http://h/{i}", text)
            refs = ref_extract(f"http://h/{i}", text)
            norm = [
                (r["url"], r["label"], r["value"], r["span_start"], r["span_end"])
                for r in ours
            ]
            ref_norm = [
                (r["url"], r["label"], r["value"], r["span"][0], r["span"][1])
                for r in refs
            ]
            assert norm == ref_norm, f"case {i}: {text[:80]!r}"

    @requires_reference
    def test_pattern_subset_and_custom_override(self):
        catalog = _ref_catalog()
        ex = RegexExtractor(
            pattern=Pattern.EMAIL | Pattern.IPV4,
            custom={"email": r"[a-z]+@[a-z]+\.com", "extra": r"zzz+"},
        )
        # reference __init__: built-ins filtered by flag, then custom
        # overrides/extends (extraction_strategy.py:2693-2704)
        exp_labels = {"email", "ipv4", "extra"}
        assert set(ex.compiled) == exp_labels
        assert ex.compiled["email"].pattern == r"[a-z]+@[a-z]+\.com"
        assert ex.compiled["ipv4"].pattern == catalog["ipv4"]
