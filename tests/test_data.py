import hashlib
import tracemalloc

import numpy as np
import pytest

from blocknewton.data import (
    Dataset,
    ParseError,
    load_csv,
    load_idx,
    synth_blobs,
    write_idx_images,
    write_idx_labels,
)
from blocknewton.errors import ConfigError


class TestIdx:
    def test_round_trip_with_pixel_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(10, 2, 3), dtype=np.uint8)
        labels = rng.integers(0, 4, size=10).astype(np.uint8)
        write_idx_images(tmp_path / "img.idx", pixels)
        write_idx_labels(tmp_path / "lab.idx", labels)
        ds = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", train_fraction=0.8)
        assert ds.features.shape == (10, 6)
        assert np.allclose(ds.features, pixels.reshape(10, 6) / 255.0, atol=1e-15)
        assert np.array_equal(ds.labels, labels)
        assert ds.num_classes == int(labels.max()) + 1
        assert ds.n_train == 8 and ds.labels.shape[0] - ds.n_train == 2

    def test_magic_numbers(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((1, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(1, dtype=np.uint8))
        img_head = (tmp_path / "img.idx").read_bytes()[:4]
        lab_head = (tmp_path / "lab.idx").read_bytes()[:4]
        assert int.from_bytes(img_head, "big") == 0x00000803
        assert int.from_bytes(lab_head, "big") == 0x00000801

    def test_truncated_file_names_byte_counts(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((4, 3, 3), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(4, dtype=np.uint8))
        blob = (tmp_path / "img.idx").read_bytes()
        (tmp_path / "cut.idx").write_bytes(blob[:-5])
        with pytest.raises(ParseError, match=r"\d+"):
            load_idx(tmp_path / "cut.idx", tmp_path / "lab.idx")

    def test_label_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((4, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParseError):
            load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")


class TestCsv:
    def test_basic_parse_and_one_hot(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,1\n0.0,1.0,2\n")
        ds = load_csv(path, label_column=2, has_header=True, train_fraction=0.75)
        assert ds.features.shape == (4, 2)
        assert np.allclose(ds.features[1], [0.3, 0.4])
        assert list(ds.labels) == [0, 1, 1, 2]
        one_hot = ds.one_hot
        assert one_hot.shape == (4, 3)
        assert np.array_equal(one_hot.sum(axis=1), np.ones(4))
        assert one_hot[3, 2] == 1.0

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2,0\nnot,a,number\n")
        with pytest.raises(ParseError, match=r"(line 2|:2)"):
            load_csv(path, label_column=2, has_header=False)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2,0\n0.3,1\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column=2, has_header=False)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,0.2", r"d\.csv:2: label 'nan' is not an integer"),
            ("inf,0.2", r"d\.csv:2: label 'inf' is not an integer"),
            ("2.7,0.2", r"d\.csv:2: label '2\.7' is not an integer"),
            ("-1,0.2", r"d\.csv:2: label '-1' is not an integer"),
            ("1e300,0.2", r"d\.csv:2: label '1e300' is not an integer"),
            ("1,0.2,0.3", r"d\.csv:2: 3 cells, but the first row has 2"),
        ],
        ids=["nan", "inf", "fraction", "negative", "huge", "ragged"],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"0,0.1\n{row}\n1,0.3\n")
        with pytest.raises(ParseError, match=message):
            load_csv(path, label_column=0)

    def test_integral_float_label_is_its_class(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,0\n0.25,2.0\n0.75,1e0\n")
        ds = load_csv(path, label_column=1)
        assert list(ds.labels) == [0, 2, 1] and ds.num_classes == 3
        assert np.array_equal(ds.features, [[0.5], [0.25], [0.75]])

    def test_parse_holds_about_two_feature_matrices(self, tmp_path):
        # each row becomes one float64 array and the rows are stacked once;
        # a list of Python floats per row held about six times the matrix
        rng = np.random.default_rng(3)
        rows, cols = 500, 200
        values = rng.uniform(size=(rows, cols))
        labels = rng.integers(0, 10, size=rows)
        path = tmp_path / "d.csv"
        path.write_text("".join(
            ",".join(map(repr, v)) + f",{c}\n" for v, c in zip(values.tolist(), labels)
        ))
        ds, peak = traced_peak(load_csv, path, label_column=cols)
        assert np.array_equal(ds.features, values) and np.array_equal(ds.labels, labels)
        assert peak <= 2.5 * ds.features.nbytes, (peak, ds.features.nbytes)


def traced_peak(load, *args, **kwargs):
    """load(*args, **kwargs) and the peak of the memory traced while it and
    its dataset's split() ran."""
    tracemalloc.start()
    try:
        ds = load(*args, **kwargs)
        ds.split()
        return ds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSplit:
    def test_parts_are_views_of_the_dataset(self):
        ds = synth_blobs(classes=3, dim=4, per_class=10, spread=0.1, seed=2)
        x_train, y_train, x_test, y_test = ds.split()
        assert np.shares_memory(x_train, ds.features)
        assert np.shares_memory(x_test, ds.features)
        assert y_train.base is y_test.base is not None
        one_hot = ds.one_hot
        train_idx, test_idx = np.arange(ds.n_train), np.arange(ds.n_train, ds.labels.shape[0])
        for part, want in (
            (x_train, ds.features[train_idx]),
            (x_test, ds.features[test_idx]),
            (y_train, one_hot[train_idx]),
            (y_test, one_hot[test_idx]),
        ):
            assert part.dtype == want.dtype and part.tobytes() == want.tobytes()
        assert list(train_idx) == list(range(24)) and list(test_idx) == list(range(24, 30))

    def test_whole_dataset_trains_and_nothing_tests(self):
        ds = synth_blobs(classes=2, dim=3, per_class=5, spread=0.1, seed=0, train_fraction=1.0)
        x_train, y_train, x_test, y_test = ds.split()
        assert x_train.shape == (10, 3) and y_train.shape == (10, 2)
        assert x_test.shape == (0, 3) and y_test.shape == (0, 2)
        assert ds.n_train == ds.labels.shape[0]

    @pytest.mark.parametrize("fraction,n_train", [(-0.5, -5), (3, 30)])
    def test_split_outside_the_rows_is_rejected(self, fraction, n_train):
        with pytest.raises(ConfigError, match=rf"n_train: expected a value in \[0, 10\], got {n_train}"):
            synth_blobs(2, 3, 5, 0.1, 0, train_fraction=fraction)
        ds = synth_blobs(2, 3, 5, 0.1, 0)
        with pytest.raises(ConfigError, match="n_train"):
            Dataset(ds.features, ds.labels, ds.num_classes, n_train)

    def test_idx_load_and_split_hold_the_features_once(self, tmp_path):
        # the file's bytes and one float64 matrix; a copied split held two
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        write_idx_images(tmp_path / "img.idx", pixels)
        write_idx_labels(tmp_path / "lab.idx", rng.integers(0, 10, size=2000))
        ds, peak = traced_peak(load_idx, tmp_path / "img.idx", tmp_path / "lab.idx")
        file_bytes = (tmp_path / "img.idx").stat().st_size
        assert peak <= ds.features.nbytes + file_bytes + 2**20, (peak, ds.features.nbytes)


class TestBlobs:
    def test_zero_spread_points_sit_on_centers(self):
        ds = synth_blobs(classes=3, dim=5, per_class=4, spread=0.0, seed=1)
        for c in range(3):
            pts = ds.features[ds.labels == c]
            assert np.all(pts == pts[0])
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)

    def test_seed_determinism(self):
        a = synth_blobs(classes=2, dim=3, per_class=10, spread=0.1, seed=9)
        b = synth_blobs(classes=2, dim=3, per_class=10, spread=0.1, seed=9)
        c = synth_blobs(classes=2, dim=3, per_class=10, spread=0.1, seed=10)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_seeded_dataset_is_pinned(self):
        # the digest of this dataset as every earlier version drew it, so a
        # change in how the points are drawn cannot change a seeded run
        ds = synth_blobs(classes=3, dim=5, per_class=7, spread=0.1, seed=11)
        digest = hashlib.sha256(ds.features.astype("<f8").tobytes())
        for a in (ds.labels, np.arange(ds.n_train), np.arange(ds.n_train, ds.labels.shape[0])):
            digest.update(a.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "0e293ac73cbaea207c17b9ecd8bc2fb8f022f66e60df4b7293e9c5cd50dd8652"
        )

    def test_split_shapes(self):
        ds = synth_blobs(classes=4, dim=2, per_class=25, spread=0.05, seed=0)
        x_train, y_train, x_test, y_test = ds.split()
        assert x_train.shape == (80, 2) and x_test.shape == (20, 2)
        assert y_train.shape == (80, 4) and y_test.shape == (20, 4)

    def test_classes_are_nearest_center_separable(self):
        ds = synth_blobs(classes=3, dim=6, per_class=30, spread=0.02, seed=4)
        centers = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        )
        dists = np.linalg.norm(ds.features[:, None, :] - centers[None], axis=2)
        assert np.mean(np.argmin(dists, axis=1) == ds.labels) >= 0.99
