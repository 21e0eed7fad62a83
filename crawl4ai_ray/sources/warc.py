"""WARC source + sink — Common Crawl's native archive format.

The north-star input is "Common-Crawl-style web pages"; CC ships them
as WARC (ISO 28500): per-record gzip members concatenated into
``.warc.gz`` shards, each record a ``WARC/1.0`` header block + an
HTTP response payload.  This module round-trips the corpus schema
``(url, warc_ts, html)`` through that format with stdlib gzip only:

- **sink** ``write_warc``: one streaming ``map_batches`` pass; each
  task serializes its batch into ONE shard (records gzipped
  individually, the CC convention that keeps records independently
  seekable), written tmp+rename (the repo-wide atomic-part invariant)
  with a content-derived deterministic name, and emits a manifest row
  ``(path, n_records, n_bytes)`` — the only thing that reaches the
  driver.
- **source** ``read_warc``: ``read_binary_files`` over the shard dir
  + a parsing ``map_batches`` — gzip members decompress transparently
  as one stream, records are split by Content-Length (never by
  scanning payload bytes, so html containing ``WARC/1.0`` cannot
  confuse the parser) — back to ``(url, warc_ts, html)`` Arrow rows.

At 100 TB each shard is an independent task in both directions; no
stage holds more than one batch.  Parity: the ``warc_roundtrip``
query extracts text from WARC-read pages and must hash-match the
``extract_text`` oracle — byte-identical text through the archive
round trip.
"""

from __future__ import annotations

import gzip
import io
import os
from datetime import datetime, timezone

import pyarrow as pa
import ray.data as rd

_DATE_FMT = "%Y-%m-%dT%H:%M:%S.%fZ"
# Real Common Crawl / WARC 1.0 archives use second-precision dates;
# the 1.0 spec does not allow fractional seconds, so our writer (which
# keeps microseconds for warc_ts round-trip fidelity) labels records
# WARC/1.1 (ISO 28500:2017 allows sub-second WARC-Date). The reader
# accepts both forms.
_DATE_FMT_SECONDS = "%Y-%m-%dT%H:%M:%SZ"
WARC_VERSION = 3  # bump when the shard/CDX layout changes (cache key)


def _record(url: str, ts_us: int, html: bytes) -> bytes:
    """One WARC/1.0 response record (uncompressed)."""
    dt = datetime.fromtimestamp(ts_us / 1e6, tz=timezone.utc)
    http = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
        b"Content-Length: " + str(len(html)).encode() + b"\r\n\r\n" + html
    )
    head = (
        "WARC/1.1\r\n"
        f"WARC-Type: response\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {dt.strftime(_DATE_FMT)}\r\n"
        "Content-Type: application/http; msgtype=response\r\n"
        f"Content-Length: {len(http)}\r\n\r\n"
    ).encode()
    return head + http + b"\r\n\r\n"


def write_warc(corpus_dir: str, out_dir: str) -> "rd.Dataset":
    """Export the corpus as ``.warc.gz`` shards; returns the manifest
    Dataset (path, n_records, n_bytes), one row per shard.

    Each shard gets a CDX companion under ``out_dir/cdx/`` whose
    ``shard`` column holds the shard's file name relative to
    ``out_dir`` (the export root), not an absolute path: readers
    resolve it against the directory they were given, so an export
    stays valid after it is moved or renamed (``warc_export_for``
    stages into a temp dir and renames it into place)."""
    os.makedirs(out_dir, exist_ok=True)

    cdx_dir = os.path.join(out_dir, "cdx")
    os.makedirs(cdx_dir, exist_ok=True)

    def shard(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from ..functions.hashing import hash64_batch

        urls = batch.column("url").to_pylist()
        ts = batch.column("warc_ts").cast(pa.int64()).to_pylist()
        htmls = batch.column("html").to_pylist()
        buf = io.BytesIO()
        offsets, lengths = [], []
        for u, t, h in zip(urls, ts, htmls):
            # per-record gzip member (CC convention: records stay
            # independently seekable — the CDX below points at them)
            member = gzip.compress(_record(u, t, h or b""), mtime=0)
            offsets.append(buf.tell())
            lengths.append(len(member))
            buf.write(member)
        payload = buf.getvalue()
        name = f"shard-{int(hash64_batch([urls[0]])[0]):016x}-{len(urls)}.warc.gz"
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        # CDX companion (Common Crawl's url->record index): url-sorted
        # parquet so the fetch-side footer min/max index gives a
        # row-group-exact keyed GET.  The corpus is url-sorted, so each
        # batch is a contiguous url range and shard CDX ranges are
        # globally disjoint (the keyed-lookup fast path).
        order = sorted(range(len(urls)), key=lambda i: urls[i])
        cdx = pa.table(
            {
                "url": pa.array([urls[i] for i in order], pa.string()),
                "shard": pa.array([name] * len(urls), pa.string()),
                "offset": pa.array([offsets[i] for i in order], pa.int64()),
                "length": pa.array([lengths[i] for i in order], pa.int64()),
            }
        )
        cdx_path = os.path.join(cdx_dir, name.replace(".warc.gz", ".cdx.parquet"))
        pq.write_table(cdx, cdx_path + ".tmp")
        os.replace(cdx_path + ".tmp", cdx_path)
        return pa.table(
            {
                "path": pa.array([path], pa.string()),
                "n_records": pa.array([len(urls)], pa.int64()),
                "n_bytes": pa.array([len(payload)], pa.int64()),
            }
        )

    ds = rd.read_parquet(corpus_dir, columns=["url", "warc_ts", "html"])
    return ds.map_batches(shard, batch_format="pyarrow")


def parse_warc_bytes(raw: bytes):
    """Yield (url, ts_us, html_bytes) from one decompressed WARC
    stream.  Records are walked by Content-Length — payload bytes are
    never scanned for markers."""
    pos = 0
    n = len(raw)
    while pos < n:
        # skip inter-record padding
        while pos < n and raw[pos : pos + 1] in (b"\r", b"\n"):
            pos += 1
        if pos >= n:
            break
        head_end = raw.index(b"\r\n\r\n", pos)
        head = raw[pos:head_end].decode("utf-8")
        lines = head.split("\r\n")
        if not lines[0].startswith("WARC/"):
            raise ValueError(f"bad WARC record header at byte {pos}")
        fields = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            fields[k.strip().lower()] = v.strip()
        clen = int(fields["content-length"])
        block = raw[head_end + 4 : head_end + 4 + clen]
        pos = head_end + 4 + clen
        if fields.get("warc-type") != "response":
            continue
        url = fields["warc-target-uri"]
        # integer-exact microseconds (float epoch would round at 2^53);
        # accept both sub-second (our WARC/1.1 writer) and the
        # second-precision form genuine Common Crawl WARC/1.0 records use
        date = fields["warc-date"]
        try:
            dt = datetime.strptime(date, _DATE_FMT)
        except ValueError:
            dt = datetime.strptime(date, _DATE_FMT_SECONDS)
        dt = dt.replace(tzinfo=timezone.utc)
        ts_us = int(dt.replace(microsecond=0).timestamp()) * 1_000_000 + dt.microsecond
        http_end = block.index(b"\r\n\r\n")
        html = block[http_end + 4 :]
        yield url, ts_us, html


def read_warc(warc_dir: str) -> "rd.Dataset":
    """``.warc.gz`` shard dir -> Dataset(url, warc_ts, html)."""

    def parse(batch: pa.Table) -> pa.Table:
        urls, tss, htmls = [], [], []
        for raw_gz in batch.column("bytes").to_pylist():
            # read_binary_files may have inferred .gz and already
            # decompressed; handle both (magic check, not extension)
            if raw_gz[:2] == b"\x1f\x8b":
                raw = gzip.GzipFile(fileobj=io.BytesIO(raw_gz)).read()
            else:
                raw = raw_gz
            for url, ts_us, html in parse_warc_bytes(raw):
                urls.append(url)
                tss.append(ts_us)
                htmls.append(html)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.int64()).cast(pa.timestamp("us")),
                "html": pa.array(htmls, pa.large_binary()),
            }
        )

    files = rd.read_binary_files(warc_dir, file_extensions=["gz"])
    return files.map_batches(parse, batch_format="pyarrow")


def warc_export_for(sf_dir: str, root: str = "/tmp/c4r_warc") -> str:
    """Build (or reuse) the WARC export of ``sf_dir``'s corpus.
    Mirrors ``corpus.build_corpus`` caching: a ``_OK`` marker gates
    reuse.  The whole export is staged into a temp directory and
    ``os.rename``d into place only once complete (the repo-wide
    atomic-part invariant, lifted to the directory level): a crashed
    prior export can therefore never leave stale ``.warc.gz``/CDX
    shards alongside a rerun's — shard names derive from batch
    boundaries, so an in-place rerun after a mid-export crash would
    otherwise yield duplicate records (ADVICE r4)."""
    import shutil

    from .corpus import build_corpus

    corpus_dir = build_corpus(sf_dir)
    tag = os.path.basename(os.path.normpath(corpus_dir))
    out_dir = os.path.join(root, f"{tag}_w{WARC_VERSION}")
    marker = os.path.join(out_dir, "_OK")
    if os.path.exists(marker):
        return out_dir
    tmp_dir = out_dir + f".tmp{os.getpid()}"
    for stale in (tmp_dir, out_dir):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
    manifest = write_warc(corpus_dir, tmp_dir).to_pandas()
    assert manifest["n_records"].sum() > 0
    with open(os.path.join(tmp_dir, "_OK"), "w") as f:
        f.write(str(int(manifest["n_records"].sum())))
    os.rename(tmp_dir, out_dir)
    return out_dir


# Per-worker shard file-handle LRU (Ray reuses worker processes).
# Keyed on (path, mtime_ns, size) so a re-exported shard (new inode
# under the same path) is never read with the old handle's contents,
# and bounded with close-on-evict so the cache cannot grow with the
# number of shards touched over a worker's lifetime (ADVICE r4).
_SHARD_HANDLES: "dict" = {}  # path -> (stat_key, handle); insertion-ordered
_SHARD_HANDLE_CAP = 128


def _shard_handle(path: str):
    st = os.stat(path)
    key = (st.st_mtime_ns, st.st_size)
    ent = _SHARD_HANDLES.get(path)
    if ent is not None:
        if ent[0] == key:
            _SHARD_HANDLES[path] = _SHARD_HANDLES.pop(path)  # LRU touch
            return ent[1]
        ent[1].close()  # path was rewritten: drop the stale handle
        del _SHARD_HANDLES[path]
    while len(_SHARD_HANDLES) >= _SHARD_HANDLE_CAP:
        victim = next(iter(_SHARD_HANDLES))
        _SHARD_HANDLES.pop(victim)[1].close()
    h = open(path, "rb")
    _SHARD_HANDLES[path] = (key, h)
    return h


def warc_hits(urls: "pa.Array", warc_dir: str, columns=("url", "html")) -> "pa.Table":
    """Keyed GET against WARC shards via the CDX: the rows of the
    archive whose url is in ``urls`` — the WARC twin of parquet
    ``keyed_lookup``, pluggable into ``fetch_batch``.

    Each url resolves through the url-sorted CDX parquet (row-group-
    exact lookup), then its gzip member is range-read from the shard
    the CDX names, relative to ``warc_dir`` (seek + read of exactly
    ``length`` bytes — the Common Crawl access pattern; shards are
    never scanned).  Supported columns: url, html, warc_ts (all a
    WARC record carries); anything else raises.
    """
    from ..stages.fetch import keyed_lookup

    bad = set(columns) - {"url", "html", "warc_ts"}
    if bad:
        raise ValueError(f"WARC store has no columns {sorted(bad)}")
    cdx = keyed_lookup(
        urls, os.path.join(warc_dir, "cdx"), ["url", "shard", "offset", "length"]
    )
    h_shard = cdx.column("shard").to_pylist()
    h_off = cdx.column("offset").to_pylist()
    h_len = cdx.column("length").to_pylist()
    # ascending offset per shard: sequentialize seeks
    order = sorted(range(len(h_shard)), key=lambda r: (h_shard[r], h_off[r]))
    out_urls, out_ts, out_html = [], [], []
    for r in order:
        f = _shard_handle(os.path.join(warc_dir, h_shard[r]))
        f.seek(h_off[r])
        member = f.read(h_len[r])
        url_r, ts_us, html = next(parse_warc_bytes(gzip.decompress(member)))
        out_urls.append(url_r)
        out_ts.append(ts_us)
        out_html.append(html)
    full = pa.table(
        {
            "url": pa.array(out_urls, pa.string()),
            "warc_ts": pa.array(out_ts, pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(out_html, pa.large_binary()),
        }
    )
    return full.select(list(columns))


class WarcFetcher:
    """map_batches actor: keyed GET against WARC shards via the CDX.

    The WARC twin of ``stages.fetch.CorpusFetcher`` — same batch
    surface (``+ html, status_code, fetched``); delegates to
    ``fetch_batch``, whose store dispatch recognizes the ``cdx/``
    companion and routes through :func:`warc_hits`.  Misses are
    status 404 with null html.
    """

    def __init__(self, warc_dir: str, columns: tuple = ("url", "html")):
        self.warc_dir = warc_dir
        self.columns = columns

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        from ..stages.fetch import fetch_batch

        return fetch_batch(batch, self.warc_dir, self.columns)
