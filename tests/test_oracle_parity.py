"""Driver-style correctness gate: run every queries() entry at
sf0.01 and compare against its DuckDB oracle (row count + column
names + order-insensitive values), mirroring the external harness."""

import math
import os

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(path):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return c


def to_df(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            result = result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        result = result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            continue
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _ids():
    from crawl4ai_ray.pipelines.oracles import ORACLES

    return sorted(ORACLES)


@pytest.mark.parametrize("name", _ids())
def test_query_matches_oracle(name, con, ray_session):
    from crawl4ai_ray.pipelines.oracles import ORACLES
    from crawl4ai_ray.pipelines.queries import QUERIES

    ray_df = canon(to_df(QUERIES[name](SF_DIR)))
    oracle_df = canon(con.execute(ORACLES[name]).fetchdf())

    assert list(ray_df.columns) == list(oracle_df.columns), (
        f"{name}: columns {list(ray_df.columns)} vs {list(oracle_df.columns)}"
    )
    assert len(ray_df) == len(oracle_df), (
        f"{name}: rows {len(ray_df)} vs {len(oracle_df)}"
    )
    pd.testing.assert_frame_equal(
        ray_df, oracle_df, check_dtype=False, check_exact=False, atol=1e-6
    )
