"""WARC source + sink (sources/warc.py): record grammar, shard
round trip, extraction parity through the archive format."""

import gzip
import io
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import SF_SMALL

from crawl4ai_ray.sources.warc import (
    _record,
    parse_warc_bytes,
    read_warc,
    warc_export_for,
    write_warc,
)


def test_record_grammar_roundtrip():
    html = b"<html><body>WARC/1.0\r\n\r\ntrap &amp; bytes</body></html>"
    rec = _record("https://x.example.com/a", 1767225600_123456, html)
    url, ts, out = next(parse_warc_bytes(rec))
    assert url == "https://x.example.com/a"
    assert ts == 1767225600_123456  # microsecond-exact
    assert out == html  # payload containing 'WARC/1.0' cannot confuse the parser


def test_multi_record_stream():
    recs = b"".join(
        _record(f"https://x.example.com/{i}", 1767225600_000000 + i, bytes([65 + i]) * i)
        for i in range(5)
    )
    got = list(parse_warc_bytes(recs))
    assert [u for u, _, _ in got] == [f"https://x.example.com/{i}" for i in range(5)]
    assert [h for _, _, h in got] == [bytes([65 + i]) * i for i in range(5)]


def test_gzip_members_concatenate():
    a = gzip.compress(_record("https://x/1", 0, b"one"), mtime=0)
    b = gzip.compress(_record("https://x/2", 0, b"two"), mtime=0)
    raw = gzip.GzipFile(fileobj=io.BytesIO(a + b)).read()
    assert [h for _, _, h in parse_warc_bytes(raw)] == [b"one", b"two"]


def test_corpus_roundtrip_exact(small_corpus, ray_session, tmp_path):
    manifest = write_warc(small_corpus, str(tmp_path)).to_pandas()
    assert manifest["n_records"].sum() == 500
    assert all(p.endswith(".warc.gz") for p in manifest["path"])
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    got = read_warc(str(tmp_path)).to_pandas().sort_values("url").reset_index(drop=True)
    want = (
        pq.read_table(small_corpus, columns=["url", "warc_ts", "html"])
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_export_cache_marker(ray_session):
    d = warc_export_for(SF_SMALL)
    assert os.path.exists(os.path.join(d, "_OK"))
    # second call reuses (no rewrite): marker mtime unchanged
    m0 = os.path.getmtime(os.path.join(d, "_OK"))
    assert warc_export_for(SF_SMALL) == d
    assert os.path.getmtime(os.path.join(d, "_OK")) == m0


def test_query_registered_in_window():
    from crawl4ai_ray.pipelines.queries import QUERIES
    from crawl4ai_ray.pipelines.oracles import ORACLES

    keys = list(QUERIES)
    assert "warc_roundtrip" in keys[:50]
    assert "warc_roundtrip" in ORACLES


def test_cdx_written_alongside(ray_session, tmp_path):
    import glob

    from crawl4ai_ray.sources.corpus import build_corpus

    write_warc(build_corpus(SF_SMALL), str(tmp_path)).to_pandas()
    shards = glob.glob(str(tmp_path) + "/*.warc.gz")
    cdx = glob.glob(str(tmp_path) + "/cdx/*.cdx.parquet")
    assert len(shards) == len(cdx) > 0
    t = pq.read_table(cdx[0])
    assert t.column_names == ["url", "shard", "offset", "length"]
    # url-sorted within each cdx file (the keyed-lookup precondition)
    urls = t.column("url").to_pylist()
    assert urls == sorted(urls)


def test_warc_fetcher_keyed_get(ray_session):
    import pyarrow.compute as pc

    from crawl4ai_ray.sources import corpus as C
    from crawl4ai_ray.sources.warc import WarcFetcher

    d = warc_export_for(SF_SMALL)
    f = WarcFetcher(d)
    urls = [C.page_url(i) for i in (3, 77, 499)] + ["https://site-0.example.com/missing"]
    out = f(pa.table({"url": pa.array(urls, pa.string())}))
    assert out.column("status_code").to_pylist() == [200, 200, 200, 404]
    assert out.column("fetched").to_pylist() == [True, True, True, False]
    corpus = pq.read_table(
        C.build_corpus(SF_SMALL), columns=["url", "html"]
    )
    for i, u in enumerate(urls[:3]):
        want = corpus.filter(pc.equal(corpus.column("url"), u)).column("html")[0].as_py()
        assert out.column("html")[i].as_py() == want
    assert out.column("html")[3].as_py() is None


def test_keyed_get_on_fresh_export(ray_session, tmp_path):
    """An export staged in a temp dir and renamed into place must still
    serve keyed GETs: CDX shard names resolve against the final root,
    never the vanished staging dir."""
    from crawl4ai_ray.sources import corpus as C
    from crawl4ai_ray.sources.warc import WarcFetcher

    root = str(tmp_path / "warcroot")
    d = warc_export_for(SF_SMALL, root=root)
    assert not [n for n in os.listdir(root) if ".tmp" in n]
    cdx = pq.read_table(os.path.join(d, "cdx"), columns=["shard"])
    assert all(os.sep not in s for s in cdx.column("shard").to_pylist())
    urls = [C.page_url(i) for i in (0, 250, 499)]
    out = WarcFetcher(d)(pa.table({"url": pa.array(urls, pa.string())}))
    assert out.column("status_code").to_pylist() == [200, 200, 200]
    corpus = pq.read_table(C.build_corpus(SF_SMALL), columns=["url", "html"]).to_pydict()
    html_of = dict(zip(corpus["url"], corpus["html"]))
    assert out.column("html").to_pylist() == [html_of[u] for u in urls]


def test_warc_keyed_fetch_query(ray_session):
    from crawl4ai_ray.pipelines.queries import QUERIES

    df = QUERIES["warc_keyed_fetch"](SF_SMALL).to_pandas().sort_values("url")
    docs = pd.read_parquet(SF_SMALL + "/documents.parquet", columns=["doc_id", "text"])
    want = docs[docs["doc_id"] % 3 == 0]
    assert len(df) == len(want)
    merged = df.assign(doc_id=df["url"].map(lambda u: int(u.rsplit("/", 1)[1]))).merge(
        want, on="doc_id", suffixes=("_got", "_want")
    )
    assert (merged["text_got"] == merged["text_want"]).all()


def test_bfs_crawl_over_warc_store_bit_equal(ray_session, tmp_path):
    """The store dispatch in fetch_batch makes every engine read WARC
    archives transparently: same seeds + robots over the parquet
    corpus and its WARC export must produce a bit-identical crawl log."""
    from crawl4ai_ray.sources import corpus as C
    from crawl4ai_ray.pipelines.crawl import BFSCrawler

    robots = {C.host_name(h): C.robots_body(h) for h in range(C.N_HOSTS)}
    pq_dir = C.build_corpus(SF_SMALL)
    warc_dir = warc_export_for(SF_SMALL)
    a = BFSCrawler(pq_dir, str(tmp_path / "pq"), max_depth=2, max_pages=200)
    a.run(C.seed_urls(), robots=robots)
    b = BFSCrawler(warc_dir, str(tmp_path / "warc"), max_depth=2, max_pages=200)
    b.run(C.seed_urls(), robots=robots)
    ta, tb = a.crawl_log().sort_by("url"), b.crawl_log().sort_by("url")
    assert ta.num_rows > 0
    assert ta.equals(tb)


def test_warc_hits_rejects_non_warc_columns(ray_session):
    from crawl4ai_ray.sources.warc import warc_hits

    d = warc_export_for(SF_SMALL)
    with pytest.raises(ValueError, match="no columns"):
        warc_hits(pa.array(["https://x/"], pa.string()), d, ["url", "lang"])


def test_second_precision_warc_date_parses():
    """Genuine Common Crawl WARC/1.0 records carry second-precision
    WARC-Date (the 1.0 spec allows nothing finer); the reader must
    accept both that and our WARC/1.1 writer's microsecond form."""
    from crawl4ai_ray.sources.warc import parse_warc_bytes

    http = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
    rec = (
        b"WARC/1.0\r\n"
        b"WARC-Type: response\r\n"
        b"WARC-Target-URI: https://x.example.com/\r\n"
        b"WARC-Date: 2024-02-29T12:34:56Z\r\n"
        b"Content-Type: application/http; msgtype=response\r\n"
        b"Content-Length: " + str(len(http)).encode() + b"\r\n\r\n" + http + b"\r\n\r\n"
    )
    [(url, ts_us, html)] = list(parse_warc_bytes(rec))
    assert url == "https://x.example.com/"
    assert ts_us % 1_000_000 == 0 and html == b"hi"


def test_writer_labels_warc_1_1():
    from crawl4ai_ray.sources.warc import _record, parse_warc_bytes

    rec = _record("https://x.example.com/", 1_700_000_000_123_456, b"<p>x</p>")
    assert rec.startswith(b"WARC/1.1\r\n")
    [(url, ts_us, html)] = list(parse_warc_bytes(rec))
    assert ts_us == 1_700_000_000_123_456 and html == b"<p>x</p>"


def test_export_crash_safety_no_stale_shards(ray_session, tmp_path):
    """A crashed prior export (shards present, _OK missing) must not
    leave stale .warc.gz/CDX files beside the rerun's output."""
    from crawl4ai_ray.sources.warc import WARC_VERSION, warc_export_for
    from crawl4ai_ray.sources.corpus import build_corpus

    root = str(tmp_path / "warcroot")
    corpus_dir = build_corpus(SF_SMALL)
    tag = os.path.basename(os.path.normpath(corpus_dir))
    out_dir = os.path.join(root, f"{tag}_w{WARC_VERSION}")
    # simulate the crash: stale shard + cdx, no _OK marker
    os.makedirs(os.path.join(out_dir, "cdx"))
    stale = os.path.join(out_dir, "shard-deadbeefdeadbeef-7.warc.gz")
    with open(stale, "wb") as f:
        f.write(b"stale")
    with open(os.path.join(out_dir, "cdx", "stale.cdx.parquet"), "wb") as f:
        f.write(b"stale")
    got = warc_export_for(SF_SMALL, root=root)
    assert got == out_dir
    assert os.path.exists(os.path.join(out_dir, "_OK"))
    names = set(os.listdir(out_dir)) | set(os.listdir(os.path.join(out_dir, "cdx")))
    assert "shard-deadbeefdeadbeef-7.warc.gz" not in names
    assert "stale.cdx.parquet" not in names
