"""Direct-load standalone reference modules for differential testing.

The reference repo at /root/reference vendors several pure-stdlib modules
(deep_crawling/scorers.py, deep_crawling/filters.py, chunking_strategy.py)
that import cleanly once their package-relative imports are shimmed with
stub modules.  Loading them lets tests fuzz OUR implementations against
the reference's actual code — the strongest parity evidence available in
this sandbox (same pattern as tests/golden/gen_markdown_goldens.py).

Read-only use of PUBLIC reference code for verification; nothing is copied
into the engine.

Where the reference checkout is absent, every ``load_ref_*`` loader skips
the calling test before touching ``sys.modules``, and ``requires_reference``
marks the tests that read reference files directly; both skip for the same
reason, so the parity tests run unchanged wherever the checkout exists.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types

import pytest

REF_ROOT = "/root/reference/crawl4ai"
_REF_MISSING = f"reference checkout {REF_ROOT} is not present"

requires_reference = pytest.mark.skipif(
    not os.path.isdir(REF_ROOT), reason=_REF_MISSING
)

_cache: dict = {}


def _require_reference():
    """Skip the calling test unless the reference checkout exists.  Runs
    before any loader installs stub modules, so a missing checkout never
    leaves MagicMock stand-ins (psutil, requests, ...) in sys.modules."""
    if not os.path.isdir(REF_ROOT):
        pytest.skip(_REF_MISSING)


def _exec_file(path: str, modname: str, package: str | None = None):
    spec = importlib.util.spec_from_file_location(modname, path)
    mod = importlib.util.module_from_spec(spec)
    if package is not None:
        mod.__package__ = package
    sys.modules[modname] = mod
    spec.loader.exec_module(mod)
    return mod


def load_ref_scorers():
    """deep_crawling/scorers.py — imports cleanly standalone."""
    _require_reference()
    if "scorers" not in _cache:
        _cache["scorers"] = _exec_file(
            f"{REF_ROOT}/deep_crawling/scorers.py", "_ref_scorers"
        )
    return _cache["scorers"]


def load_ref_filters():
    """deep_crawling/filters.py — needs a ..utils.HeadPeekr shim.

    Registers a fake package tree  _refpkg/_refpkg.utils/_refpkg.deep_crawling
    so the module's ``from ..utils import HeadPeekr`` resolves to a stub
    (HeadPeekr is only used by the async head-fetch filters, which the
    differential tests never exercise).
    """
    _require_reference()
    if "filters" not in _cache:
        pkg = types.ModuleType("_refpkg")
        pkg.__path__ = []
        sys.modules["_refpkg"] = pkg
        utils_stub = types.ModuleType("_refpkg.utils")

        class HeadPeekr:  # pragma: no cover - never exercised
            pass

        utils_stub.HeadPeekr = HeadPeekr
        sys.modules["_refpkg.utils"] = utils_stub
        sub = types.ModuleType("_refpkg.deep_crawling")
        sub.__path__ = []
        sys.modules["_refpkg.deep_crawling"] = sub
        _cache["filters"] = _exec_file(
            f"{REF_ROOT}/deep_crawling/filters.py",
            "_refpkg.deep_crawling.filters",
            package="_refpkg.deep_crawling",
        )
    return _cache["filters"]


def load_ref_utils():
    """utils.py — the big scalar-helper module (normalize_url family,
    get_base_domain, is_external_url, clean_tokens, merge_chunks).

    Heavy external imports (bs4/lxml/httpx/requests/xxhash/aiohttp/psutil/
    packaging) are MagicMock-stubbed — none of the fuzzed pure functions
    touch them; the vendored html2text and config relative imports resolve
    to the REAL reference files so constants stay authentic.
    """
    _require_reference()
    if "utils" not in _cache:
        from unittest.mock import MagicMock

        # packaging is REAL in this env and ray's pyarrow version check
        # needs it importable later — import it first so the setdefault
        # below never replaces it with a MagicMock (selective pytest
        # runs where ray imports after this loader would break).
        import packaging.version  # noqa: F401

        for name in [
            "bs4", "lxml", "lxml.etree", "lxml.html", "httpx", "requests",
            "requests.exceptions", "xxhash", "aiohttp", "psutil",
            "packaging", "packaging.version",
        ]:
            sys.modules.setdefault(name, MagicMock())
        pkg = types.ModuleType("_refu")
        pkg.__path__ = []
        pkg.__version__ = "0.0.0"
        sys.modules["_refu"] = pkg
        sys.modules["_refu.prompts"] = MagicMock()
        spec = importlib.util.spec_from_file_location(
            "_refu.html2text",
            f"{REF_ROOT}/html2text/__init__.py",
            submodule_search_locations=[f"{REF_ROOT}/html2text"],
        )
        h2t = importlib.util.module_from_spec(spec)
        sys.modules["_refu.html2text"] = h2t
        spec.loader.exec_module(h2t)
        _exec_file(f"{REF_ROOT}/config.py", "_refu.config", package="_refu")
        _cache["utils"] = _exec_file(
            f"{REF_ROOT}/utils.py", "_refu.utils", package="_refu"
        )
    return _cache["utils"]


def load_ref_chunking():
    """chunking_strategy.py — needs a .model_loader.load_nltk_punkt shim.

    Only the pure chunkers (Identity/Regex/FixedLengthWord/SlidingWindow/
    OverlappingWindow) are exercised; the NLTK-backed ones are not
    constructible in this sandbox (the stub raises if called).
    """
    _require_reference()
    if "chunking" not in _cache:
        pkg = types.ModuleType("_refpkg2")
        pkg.__path__ = []
        sys.modules["_refpkg2"] = pkg
        ml = types.ModuleType("_refpkg2.model_loader")

        def load_nltk_punkt():  # pragma: no cover
            raise RuntimeError("nltk unavailable in sandbox")

        ml.load_nltk_punkt = load_nltk_punkt
        sys.modules["_refpkg2.model_loader"] = ml
        _cache["chunking"] = _exec_file(
            f"{REF_ROOT}/chunking_strategy.py",
            "_refpkg2.chunking_strategy",
            package="_refpkg2",
        )
    return _cache["chunking"]


def load_ref_antibot():
    """antibot_detector.py — pure stdlib, imports cleanly standalone."""
    _require_reference()
    if "antibot" not in _cache:
        _cache["antibot"] = _exec_file(
            f"{REF_ROOT}/antibot_detector.py", "_ref_antibot"
        )
    return _cache["antibot"]


def load_ref_cache_context():
    """cache_context.py — pure stdlib, imports cleanly standalone."""
    _require_reference()
    if "cache_context" not in _cache:
        _cache["cache_context"] = _exec_file(
            f"{REF_ROOT}/cache_context.py", "_ref_cache_context"
        )
    return _cache["cache_context"]


def load_ref_proxies():
    """proxy_strategy.py — pure stdlib (asyncio/itertools), standalone."""
    _require_reference()
    if "proxies" not in _cache:
        _cache["proxies"] = _exec_file(
            f"{REF_ROOT}/proxy_strategy.py", "_ref_proxies"
        )
    return _cache["proxies"]


def load_ref_user_agents():
    """user_agent_generator.py — loads with fake_useragent/requests/
    lxml MagicMock stubs (only the offline UserAgentGenerator class is
    exercised; ValidUAGenerator/OnlineUAGenerator need network)."""
    _require_reference()
    if "user_agents" not in _cache:
        from unittest.mock import MagicMock

        import packaging.version  # noqa: F401  (keep real, see load_ref_utils)

        for name in ["fake_useragent", "requests", "lxml", "lxml.html"]:
            sys.modules.setdefault(name, MagicMock())
        _cache["user_agents"] = _exec_file(
            f"{REF_ROOT}/user_agent_generator.py", "_ref_user_agents"
        )
    return _cache["user_agents"]


def load_ref_adaptive():
    """adaptive_crawler.py — loads with crawl4ai.* stubs, package-bound
    to _refu so its deferred ``from .utils import get_text_embeddings``
    resolves to the REAL reference utils module (load_ref_utils). Tests
    monkeypatch _refu.utils.get_text_embeddings /
    perform_completion_with_backoff with deterministic fakes and drive
    the actual EmbeddingStrategy math differentially."""
    _require_reference()
    if "adaptive" not in _cache:
        load_ref_utils()  # installs _refu + _refu.utils
        from unittest.mock import MagicMock

        c4 = types.ModuleType("crawl4ai")
        c4.__path__ = []
        sys.modules.setdefault("crawl4ai", c4)
        awc = types.ModuleType("crawl4ai.async_webcrawler")
        awc.AsyncWebCrawler = MagicMock()
        sys.modules.setdefault("crawl4ai.async_webcrawler", awc)
        cfgs = types.ModuleType("crawl4ai.async_configs")
        cfgs.CrawlerRunConfig = MagicMock()
        cfgs.LinkPreviewConfig = MagicMock()
        cfgs.LLMConfig = MagicMock()
        sys.modules.setdefault("crawl4ai.async_configs", cfgs)
        models = types.ModuleType("crawl4ai.models")

        class Link:
            def __init__(self, **kw):
                self.__dict__.update(kw)

        models.Link = Link
        models.CrawlResult = MagicMock()
        sys.modules.setdefault("crawl4ai.models", models)
        _cache["adaptive"] = _exec_file(
            f"{REF_ROOT}/adaptive_crawler.py",
            "_refu.adaptive_crawler",
            package="_refu",
        )
    return _cache["adaptive"]
