import numpy as np
import pytest
from hypothesis import settings

from hydrochar import data

# Property tests fit models and scan whole arrays; per-example time varies
# with the drawn size and the host, so no example has a deadline. The "ci"
# profile runs ten times the examples; `pytest --hypothesis-profile=ci`
# loads it after this file's load_profile, so it takes effect.
settings.register_profile("hydrochar", deadline=None)
settings.register_profile("ci", parent=settings.get_profile("hydrochar"), max_examples=1000)
settings.load_profile("hydrochar")


def examples(n: int) -> int:
    """``n`` examples under the default profile, scaled like its max_examples
    by the loaded one (10x under "ci"); decorators read it at collection."""
    return n * settings.default.max_examples // 100


def shuffled_folds(n, k, seed):
    """Fold ids for n rows: a seeded permutation chunked into k folds of
    near-equal size, as ``data.split`` assigns its training rows."""
    fold_ids = np.empty(n, dtype=int)
    for fold, chunk in enumerate(np.array_split(np.random.default_rng(seed).permutation(n), k)):
        fold_ids[chunk] = fold
    return fold_ids


@pytest.fixture(scope="session")
def small_dataset():
    return data.generate_synthetic(80, seed=101)


@pytest.fixture(scope="session")
def medium_dataset():
    return data.generate_synthetic(300, seed=202)


@pytest.fixture()
def csv_factory(tmp_path):
    """Write rows (list of cell lists) under the canonical header."""

    def make(rows, name="data.csv", header=None):
        head = ",".join(data.CSV_HEADER if header is None else header)
        lines = [head] + [",".join(str(c) for c in row) for row in rows]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return make


def valid_row(**overrides):
    """One schema-valid CSV row as a list of 21 cells."""
    base = {
        "biomass_c": 45.0,
        "biomass_h": 6.0,
        "biomass_n": 1.0,
        "biomass_s": 0.2,
        "biomass_o": 40.0,
        "biomass_vm": 70.0,
        "biomass_fc": 15.0,
        "biomass_ash": 8.0,
        "temperature_c": 220.0,
        "time_min": 60.0,
        "water_wt": 80.0,
        "hc_yield": 55.0,
        "hc_hhv": 24.0,
        "hc_vm": 45.0,
        "hc_fc": 40.0,
        "hc_ash": 12.0,
        "hc_c": 60.0,
        "hc_h": 5.0,
        "hc_n": 1.1,
        "hc_s": 0.1,
        "hc_o": 25.0,
    }
    base.update(overrides)
    return [base[c] for c in data.CSV_HEADER]


def make_dataset(n, **columns):
    """n rows of valid_row()'s features with every target unreported; each
    keyword sets a feature or target column to a scalar or n values, where
    None (NaN) marks an unreported target."""
    x = np.tile(np.array(valid_row()[:11], dtype=float), (n, 1))
    y = np.full((n, 10), np.nan)
    for name, values in columns.items():
        matrix, names = (x, data.FEATURE_COLUMNS) if name in data.FEATURE_COLUMNS else (y, data.TARGET_COLUMNS)
        matrix[:, names.index(name)] = np.array(values, dtype=float)
    return data.Dataset(x, y)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
