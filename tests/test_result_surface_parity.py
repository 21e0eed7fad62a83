"""Every field of the reference's ``CrawlResult`` (models.py:130-162)
is either mapped to a column of our persisted result schema, covered by
an equivalent engine mechanism, or documented out-of-scope
(browser/network-only features) — ast-checked against the reference
source so a reference field added later fails this test instead of
silently widening the gap.
"""

from __future__ import annotations

import ast

from crawl4ai_ray.stages.extract import RESULT_SCHEMA

from _refload import requires_reference

REF_MODELS = "/root/reference/crawl4ai/models.py"

# reference field -> column(s) in the fused fetch→extract→persist row.
# status_code/depth/parent/order/fetched are appended by the crawl loop
# at persist time (wave parts = RESULT_SCHEMA + loop columns).
FIELD_MAP = {
    "url": ["url"],
    "html": ["html"],  # raw bytes retained in the corpus / fetch stage
    "fit_html": ["fit_html"],
    "success": ["success"],
    "cleaned_html": ["cleaned_html"],
    "media": ["images", "videos", "audios"],
    "links": ["links_internal", "links_external"],
    "_markdown": [
        "raw_markdown",
        "markdown_with_citations",
        "references_markdown",
        "fit_markdown",
    ],
    "extracted_content": ["text"],
    "metadata": ["metadata", "title"],
    "error_message": ["error_message"],
    "status_code": ["status_code"],
    "tables": ["tables"],
    "head_fingerprint": ["head_fingerprint"],
}

# Same semantics, different shape: asserted to exist as code, not columns.
EQUIVALENT_MECHANISM = {
    # smart-cache freshness: revalidate_cached emits a per-row
    # ``validation`` verdict (fresh/stale/unknown/error); hit-vs-miss is
    # the warm-cache serve path (pipelines/crawl.py _serve_from_cache)
    "cached_at": ("crawl4ai_ray.pipelines.cache", "revalidate_cached"),
    "cache_status": ("crawl4ai_ray.pipelines.cache", "revalidate_cached"),
    # per-crawl dispatch/timing stats -> per-wave metrics.parquet
    "crawl_stats": ("crawl4ai_ray.pipelines.crawl", "BFSCrawler"),
    # fetch-time TLS capture: CorpusFetcher(fetch_ssl=True) appends
    # per-host ssl_* columns; the SSLCertificate record class mirrors
    # reference ssl_certificate.py (round 4)
    "ssl_certificate": ("crawl4ai_ray.functions.ssl_certificate", "SSLCertificate"),
}

# Browser-session / live-socket surface: out of scope in this engine
# (SURVEY §2.1 / VERDICT oos rows).
OUT_OF_SCOPE = {
    "downloaded_files",  # file-download sink exists; per-result path list is browser-session state
    "js_execution_result",
    "screenshot",
    "pdf",  # page->PDF render (browser); PDF *parsing* is stages/pdf_extract.py
    "mhtml",
    "session_id",
    "response_headers",
    "dispatch_result",  # replaced by Ray backpressure (SURVEY §4)
    "redirected_url",  # no redirect chain without a socket
    "redirected_status_code",
    "network_requests",
    "console_messages",
}


def _ref_crawlresult_fields() -> list[str]:
    tree = ast.parse(open(REF_MODELS).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CrawlResult":
            names = []
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    names.append(stmt.target.id)
            return [n for n in names if n != "model_config"]
    raise AssertionError("CrawlResult not found")


class TestResultSurface:
    @requires_reference
    def test_every_reference_field_accounted_for(self):
        fields = _ref_crawlresult_fields()
        assert len(fields) >= 25  # sanity: ast actually found the class
        unaccounted = [
            f
            for f in fields
            if f not in FIELD_MAP
            and f not in EQUIVALENT_MECHANISM
            and f not in OUT_OF_SCOPE
        ]
        assert unaccounted == [], f"unmapped CrawlResult fields: {unaccounted}"

    def test_mapped_columns_exist(self):
        kernel_cols = set(RESULT_SCHEMA.names)
        loop_cols = {"html", "status_code"}  # appended at persist time
        for ref_field, cols in FIELD_MAP.items():
            for c in cols:
                assert c in kernel_cols or c in loop_cols, (ref_field, c)

    def test_equivalent_mechanisms_exist(self):
        import importlib

        for field, (mod_name, attr) in EQUIVALENT_MECHANISM.items():
            mod = importlib.import_module(mod_name)
            assert hasattr(mod, attr), (field, mod_name, attr)

    def test_categories_disjoint(self):
        assert not set(FIELD_MAP) & OUT_OF_SCOPE
        assert not set(FIELD_MAP) & set(EQUIVALENT_MECHANISM)
        assert not set(EQUIVALENT_MECHANISM) & OUT_OF_SCOPE
