"""SSL certificate capture (functions/ssl_certificate.py + the
CorpusFetcher ``fetch_ssl`` seam) vs reference ssl_certificate.py.

The live TLS handshake is sandbox-impossible; these tests pin
(a) the record class surface field-for-field against the reference's
``cert_info_raw`` keys (ast-read, so a reference key added later
fails here), (b) the export invariants that hold for REAL certs too
(fingerprint == sha256(DER), PEM == base64-wrapped DER), and (c) the
fetch-seam plumbing: per-row ssl_* columns, per-host determinism.
"""

import ast
import base64
import hashlib
import json

import pytest

from crawl4ai_ray.functions.ssl_certificate import (
    SSL_COLUMNS,
    SSLCertificate,
    ssl_columns_for_hosts,
    synth_cert_fields,
    synth_host_cert,
)

from _refload import requires_reference

REF = "/root/reference/crawl4ai/ssl_certificate.py"


def _reference_cert_keys() -> set:
    """Keys of cert_info_raw in SSLCertificate.from_url (REF:91-111),
    including the post-hoc 'extensions' insert."""
    tree = ast.parse(open(REF).read())
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "cert_info_raw" in targets:
                keys |= {
                    k.value for k in node.value.keys if isinstance(k, ast.Constant)
                }
    keys.add("extensions")
    return keys


class TestRecordSurface:
    @requires_reference
    def test_fields_match_reference(self):
        ref_keys = _reference_cert_keys()
        assert ref_keys, "failed to ast-read reference cert keys"
        cert = synth_host_cert("site-3.example.com")
        assert set(cert) == ref_keys

    def test_properties_and_repr(self):
        host = "site-3.example.com"
        cert = synth_host_cert(host)
        assert cert.subject == {"CN": host}
        assert cert.issuer["CN"].startswith("Synthetic Root CA ")
        assert cert.valid_from == cert["not_before"]
        assert cert.valid_until == cert["not_after"]
        assert cert.fingerprint == cert["fingerprint"]
        assert host in repr(cert)

    def test_json_serializable_directly(self):
        cert = synth_host_cert("site-0.example.com")
        # dict subclass: json.dumps works on the object itself
        rt = json.loads(json.dumps(cert))
        assert rt == dict(cert)
        assert json.loads(cert.to_json()) == dict(cert)

    def test_decode_bytes_recursively(self):
        c = SSLCertificate({b"k": b"v", "nested": [{"a": b"b"}]})
        assert c == {"k": "v", "nested": [{"a": "b"}]}


class TestExportInvariants:
    def test_fingerprint_is_sha256_of_der(self):
        cert = synth_host_cert("site-7.example.com")
        der = cert.to_der()
        assert hashlib.sha256(der).hexdigest() == cert.fingerprint

    def test_pem_wraps_der(self):
        cert = synth_host_cert("site-7.example.com")
        pem = cert.to_pem()
        assert pem.startswith("-----BEGIN CERTIFICATE-----\n")
        assert pem.endswith("-----END CERTIFICATE-----\n")
        body = pem.split("-----")[2].strip()
        assert base64.b64decode(body) == cert.to_der()
        assert all(len(line) <= 64 for line in body.splitlines())

    def test_file_exports(self, tmp_path):
        cert = synth_host_cert("site-1.example.com")
        cert.to_json(str(tmp_path / "c.json"))
        cert.to_pem(str(tmp_path / "c.pem"))
        cert.to_der(str(tmp_path / "c.der"))
        assert json.loads((tmp_path / "c.json").read_text()) == dict(cert)
        assert (tmp_path / "c.der").read_bytes() == cert.to_der()
        assert (tmp_path / "c.pem").read_text() == cert.to_pem()


class TestDeterminism:
    def test_same_host_same_cert(self):
        a, b = synth_host_cert("x.example.com"), synth_host_cert("x.example.com")
        assert a == b

    def test_different_hosts_differ(self):
        a = synth_cert_fields("site-1.example.com")
        b = synth_cert_fields("site-2.example.com")
        assert a["fingerprint"] != b["fingerprint"]
        assert a["serial_number"] != b["serial_number"]

    def test_vectorized_matches_scalar(self):
        hosts = ["b.com", "a.com", "b.com", "c.com"]
        cols = ssl_columns_for_hosts(hosts)
        assert set(cols) == set(SSL_COLUMNS)
        for i, h in enumerate(hosts):
            f = synth_cert_fields(h)
            assert cols["ssl_fingerprint"][i] == f["fingerprint"]
            assert cols["ssl_subject"][i] == f["subject"]


class TestFetchSeam:
    def test_fetcher_appends_ssl_columns(self, ray_session, small_corpus):
        import pyarrow as pa

        from crawl4ai_ray.sources import corpus as C
        from crawl4ai_ray.stages.fetch import CorpusFetcher

        f = CorpusFetcher(small_corpus, fetch_ssl=True)
        urls = C.seed_urls()
        out = f(pa.table({"url": pa.array(urls, pa.string())}))
        for c in SSL_COLUMNS:
            assert c in out.column_names
        # rows for the same host carry the identical cert
        subj = out.column("ssl_subject").to_pylist()
        fps = out.column("ssl_fingerprint").to_pylist()
        from crawl4ai_ray.functions.urls import host_of

        for u, s, fp in zip(urls, subj, fps):
            fields = synth_cert_fields(host_of(u))
            assert s == fields["subject"]
            assert fp == fields["fingerprint"]
        # handshake cache populated once per host
        assert set(f._ssl_cache) == {host_of(u) for u in urls}

    def test_ssl_off_by_default(self, ray_session, small_corpus):
        import pyarrow as pa

        from crawl4ai_ray.sources import corpus as C
        from crawl4ai_ray.stages.fetch import CorpusFetcher

        f = CorpusFetcher(small_corpus)
        out = f(pa.table({"url": pa.array(C.seed_urls(), pa.string())}))
        assert not any(c in out.column_names for c in SSL_COLUMNS)
