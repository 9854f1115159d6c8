"""Unit tests for the observation model and the Gram matrix."""
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import gopp.model
from gopp.bench import generate_instance
from gopp.gpm import objective
from gopp.linops import StiefelStack
from gopp.model import (
    GramMatrix,
    PointCloud,
    PointCloudSet,
    build_data_matrix,
    build_gram,
    read_cloud,
    read_cloud_set,
    read_stack,
    write_cloud,
    write_cloud_set,
    write_stack,
)

from conftest import center, dense_gram, gram_block, oracle_read, random_orthogonal, random_stack


def make_cloud_set(rng, n, d, m):
    return PointCloudSet(tuple(PointCloud(rng.standard_normal((d, m))) for _ in range(n)))


class TestTypes:
    def test_cloud_needs_enough_samples(self):
        with pytest.raises(ValueError, match="m >= d\\+1"):
            PointCloud(np.zeros((3, 3)))

    def test_cloud_rejects_non_finite(self):
        pts = np.zeros((2, 4))
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PointCloud(pts)

    def test_set_needs_two_clouds(self):
        with pytest.raises(ValueError, match="n >= 2"):
            PointCloudSet((PointCloud(np.zeros((2, 4))),))

    def test_set_rejects_mismatched_shapes(self, rng):
        a = PointCloud(rng.standard_normal((2, 4)))
        b = PointCloud(rng.standard_normal((2, 5)))
        with pytest.raises(ValueError, match="cloud 1"):
            PointCloudSet((a, b))

    def test_equality_is_identity(self, rng):
        a, b = PointCloud(np.zeros((2, 4))), PointCloud(np.zeros((2, 4)))
        assert (a == b) is False and (a == a) is True
        clouds = make_cloud_set(rng, 3, 2, 4)
        assert (clouds == PointCloudSet(clouds.clouds)) is False and (clouds == clouds) is True
        inst = generate_instance("uniform_cube", 3, 4, 2, 0.1, seed=0)
        again = generate_instance("uniform_cube", 3, 4, 2, 0.1, seed=0)
        assert (inst == again) is False and (inst == inst) is True

    def test_gram_block_access(self, rng):
        clouds = make_cloud_set(rng, 3, 2, 5)
        gram = build_gram(clouds, center_first=False)
        expected = clouds.clouds[1].points @ clouds.clouds[2].points.T
        assert np.allclose(gram_block(gram, 1, 2), expected, atol=1e-12)

    def test_gram_shape_check(self):
        with pytest.raises(ValueError, match="expected shape"):
            GramMatrix(factor=np.zeros((4, 4)), n=3, d=2)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=3),
    p_extra=st.integers(min_value=0, max_value=3),
    m_extra=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gram_fast_paths_match_dense_oracle(n, d, p_extra, m_extra, seed):
    # c @ X and both norms against the dense C = dense_gram(c).
    rng = np.random.default_rng(seed)
    gram = GramMatrix(factor=rng.standard_normal((n * d, d + m_extra)), n=n, d=d)
    dense = dense_gram(gram)
    scale = np.linalg.norm(dense)
    x = rng.standard_normal((n * d, d + p_extra))
    assert np.max(np.abs(gram @ x - dense @ x)) <= 1e-12 * scale * np.linalg.norm(x)
    assert gram.fro_norm() == pytest.approx(scale, rel=1e-12)
    assert gram.spectral_norm() == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


class TestCenter:
    # build_gram(center_first=True) centres every cloud of the set at once.
    def test_zero_mean_unchanged(self, rng):
        pts = rng.standard_normal((3, 2, 6))
        pts -= pts.mean(axis=2, keepdims=True)
        factor = build_gram(PointCloudSet.from_array(pts), center_first=True).factor
        assert np.allclose(factor, pts.reshape(6, 6), atol=1e-14)

    def test_constant_columns_vanish(self):
        c = np.array([[2.0], [-1.0]])
        clouds = PointCloudSet((PointCloud(np.tile(c, (1, 5))), PointCloud(np.tile(-c, (1, 5)))))
        assert np.allclose(build_gram(clouds, center_first=True).factor, 0.0, atol=1e-14)

    def test_idempotent(self, rng):
        clouds = make_cloud_set(rng, 3, 3, 7)
        once = build_gram(clouds, center_first=True).factor
        again = PointCloudSet.from_array(once.reshape(3, 3, 7))
        assert np.allclose(build_gram(again, center_first=True).factor, once, atol=1e-14)


class TestDataMatrix:
    def test_two_identical_clouds(self, rng):
        pts = rng.standard_normal((2, 5))
        clouds = PointCloudSet((PointCloud(pts), PointCloud(pts)))
        d_mat = build_data_matrix(clouds)
        assert np.array_equal(d_mat[:2], d_mat[2:])

    def test_row_extraction(self, rng):
        clouds = make_cloud_set(rng, 3, 2, 5)
        d_mat = build_data_matrix(clouds)
        for i in range(3):
            for r in range(2):
                assert np.array_equal(d_mat[i * 2 + r], clouds.clouds[i].points[r])


class TestBuildGram:
    def test_identity_clouds(self):
        pts = np.hstack([np.eye(2), np.zeros((2, 1))])  # m = d + 1
        clouds = PointCloudSet((PointCloud(pts), PointCloud(pts)))
        gram = build_gram(clouds, center_first=False)
        for i in range(2):
            for j in range(2):
                assert np.allclose(gram_block(gram, i, j), np.eye(2), atol=1e-14)

    def test_psd(self, rng):
        gram = build_gram(make_cloud_set(rng, 4, 3, 6), center_first=False)
        min_eig = np.linalg.eigvalsh(dense_gram(gram))[0]
        assert min_eig >= -1e-10 * np.linalg.norm(dense_gram(gram), 2)

    def test_centering_equivalence(self, rng):
        # C from shifted clouds with centering equals C from pre-centered ones.
        clouds = make_cloud_set(rng, 3, 2, 6)
        shifted = PointCloudSet(
            tuple(
                PointCloud(c.points + rng.standard_normal((2, 1)))
                for c in clouds.clouds
            )
        )
        pre = PointCloudSet(tuple(center(c) for c in shifted.clouds))
        a = build_gram(shifted, center_first=True)
        b = build_gram(pre, center_first=False)
        assert np.max(np.abs(dense_gram(a) - dense_gram(b))) <= 1e-12

    def test_equals_data_matrix_product(self, rng):
        clouds = make_cloud_set(rng, 3, 2, 6)
        gram = build_gram(clouds, center_first=False)
        d_mat = build_data_matrix(clouds)
        assert np.max(np.abs(dense_gram(gram) - d_mat @ d_mat.T)) <= 1e-12

    def test_global_rotation_gauge(self, rng):
        # Rotating every cloud by one Q conjugates blocks and preserves the
        # objective at correspondingly rotated stacks.
        clouds = make_cloud_set(rng, 3, 2, 6)
        q = random_orthogonal(rng, 2)
        rotated = PointCloudSet(
            tuple(PointCloud(q @ c.points) for c in clouds.clouds)
        )
        g1 = build_gram(clouds, center_first=False)
        g2 = build_gram(rotated, center_first=False)
        for i in range(3):
            for j in range(3):
                assert np.allclose(gram_block(g2, i, j), q @ gram_block(g1, i, j) @ q.T, atol=1e-10)
        s = random_stack(rng, 3, 2)
        s_rot = StiefelStack(np.stack([q @ b for b in s.blocks]))
        assert abs(objective(g1, s) - objective(g2, s_rot)) <= 1e-10 * abs(
            objective(g1, s)
        )


class TestFileFormat:
    def test_cloud_round_trip_exact(self, rng, tmp_path):
        cloud = PointCloud(rng.standard_normal((3, 7)))
        path = tmp_path / "cloud.txt"
        write_cloud(path, cloud)
        back = read_cloud(path)
        assert np.array_equal(back.points, cloud.points)

    def test_cloud_set_round_trip_exact(self, rng, tmp_path):
        clouds = make_cloud_set(rng, 4, 2, 5)
        path = tmp_path / "set.txt"
        write_cloud_set(path, clouds)
        back = read_cloud_set(path)
        assert back.n == 4
        for orig, readback in zip(clouds.clouds, back.clouds):
            assert np.array_equal(readback.points, orig.points)

    def test_header_layout(self, rng, tmp_path):
        cloud = PointCloud(rng.standard_normal((2, 4)))
        path = tmp_path / "cloud.txt"
        write_cloud(path, cloud)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 4"
        assert len(lines) == 3

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n1.0 2.0 3.0\n")
        with pytest.raises((ValueError, IndexError)):
            read_cloud(path)

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n\n2 3\n1 2 3\n4 5 x\n")
        expected = f"{re.escape(str(path))}: line 5: cannot parse a cloud row"
        with pytest.raises(ValueError, match=expected):
            read_cloud_set(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=4),
        d=st.integers(min_value=1, max_value=3),
        m_extra=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_strict_prefix_rejected(self, n, d, m_extra, seed):
        clouds = make_cloud_set(np.random.default_rng(seed), n, d, d + m_extra)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/set.txt"
            write_cloud_set(path, clouds)
            with open(path) as fh:
                lines = fh.readlines()
            for k in range(len(lines)):
                with open(path, "w") as fh:
                    fh.writelines(lines[:k])
                with pytest.raises(ValueError, match=rf"{re.escape(path)}: line \d+: "):
                    read_cloud_set(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=4),
        d=st.integers(min_value=1, max_value=3),
        m_extra=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_extra_record_rejected(self, n, d, m_extra, seed):
        rng = np.random.default_rng(seed)
        clouds = make_cloud_set(rng, n + 1, d, d + m_extra)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/set.txt"
            write_cloud_set(path, clouds)
            with open(path) as fh:
                lines = fh.readlines()
            lines[0] = f"{n}\n"  # declare one record fewer than the file holds
            with open(path, "w") as fh:
                fh.writelines(lines)
            first_extra = 2 + n * (d + 1)
            with pytest.raises(ValueError, match=f"line {first_extra}: unexpected data"):
                read_cloud_set(path)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((2, 4)) * 10.0 ** rng.integers(-8, 8)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cloud.txt"
            write_cloud(path, PointCloud(pts))
            assert np.array_equal(read_cloud(path).points, pts)


# Tokens put in place of one field: malformed, non-finite, or valid for float() but not numpy.
TOKENS = {"bad_token": "1.0.0", "nan": "nan", "inf": "-inf", "underscore": "1_0",
          "fullwidth": "\uff11.\uff15"}
CORRUPTIONS = (
    "none", "truncate", "cut_line", "extra_field", "missing_field", "comment",
    "tabs_and_blanks", "record_shape", *TOKENS,
)


def corrupt(lines, how, k, j, record_lines):
    """`lines` (no newlines) with corruption `how` at line k and field j (both mod size).

    `record_lines` holds the header lines a "record_shape" corruption may change.
    """
    lines = list(lines)
    k %= len(lines)
    fields = lines[k].split(" ")
    j %= len(fields)
    if how in TOKENS:
        fields[j] = TOKENS[how]
        lines[k] = " ".join(fields)
    elif how == "truncate":
        del lines[k:]
    elif how == "cut_line":
        lines[k:] = [lines[k][: len(lines[k]) // 2]]
    elif how == "extra_field":
        lines[k] += " 0.5"
    elif how == "missing_field":
        lines[k] = " ".join(fields[:-1])
    elif how == "comment":
        lines[k] += "  # a note"
    elif how == "tabs_and_blanks":
        lines = [ln.replace(" ", "\t") for ln in lines]
        lines[k:k] = ["", " \t "]
    elif how == "record_shape":  # a later record declares another shape
        h = record_lines[k % len(record_lines)]
        counts = [int(v) for v in lines[h].split()]
        counts[j % len(counts)] += 1
        lines[h] = " ".join(map(str, counts))
    return lines


def write_random(kind, path, rng, n, d, extra):
    """A valid file of `kind`; returns the header lines "record_shape" may change."""
    if kind == "cloud":
        write_cloud(path, PointCloud(rng.standard_normal((d, d + extra))))
        return [0]
    if kind == "cloud_set":
        write_cloud_set(path, make_cloud_set(rng, n, d, d + extra))
        return [1 + i * (d + 1) for i in range(1, n)]
    write_stack(path, random_stack(rng, n, d, d + extra))
    return [0]


READERS = {
    "cloud": (read_cloud, lambda c: c.points),
    "cloud_set": (read_cloud_set, lambda s: s.points),
    "stack": (read_stack, lambda s: s.blocks),
}


class TestBulkReaders:
    # No explain phase: on a failure it traced this test for minutes before reporting.
    @settings(max_examples=300, deadline=None, phases=set(Phase) - {Phase.explain})
    @given(
        kind=st.sampled_from(sorted(READERS)),
        how=st.sampled_from(CORRUPTIONS),
        n=st.integers(min_value=2, max_value=4),
        d=st.integers(min_value=1, max_value=3),
        extra=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=0, max_value=10**6),
        j=st.integers(min_value=0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_readers_match_line_by_line_oracle(self, kind, how, n, d, extra, k, j, seed):
        # Bitwise-equal values, or the oracle's message with its file and line;
        # never a warning on the way.
        read, values = READERS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/{kind}.txt"
            record_lines = write_random(kind, path, np.random.default_rng(seed), n, d, extra)
            with open(path) as fh:
                lines = fh.read().splitlines()
            with open(path, "w") as fh:
                fh.writelines(ln + "\n" for ln in corrupt(lines, how, k, j, record_lines))
            try:
                expected = oracle_read(path, kind)
            except ValueError as exc:
                with pytest.raises(ValueError) as got, warnings.catch_warnings():
                    warnings.simplefilter("error")
                    read(path)
                assert str(got.value) == str(exc)
                return
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = values(read(path))
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_clean_file_takes_the_one_call_parse(self, kind, rng, tmp_path, monkeypatch):
        def no_loop(lines):
            raise AssertionError("fell back to the line loop")

        monkeypatch.setattr(gopp.model, f"_{kind}_loop", no_loop)
        path = tmp_path / "file.txt"
        write_random(kind, path, rng, 3, 2, 2)
        read, values = READERS[kind]
        assert values(read(path)).size > 0

    def test_float_spelling_numpy_rejects_is_read_by_the_loop(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("2\n1 2\n1_0 2\n1 2\n\uff13 4\n")
        assert np.array_equal(read_cloud_set(path).points, [[[10.0, 2.0]], [[3.0, 4.0]]])


class TestFromArray:
    def test_clouds_are_views_of_the_checked_array(self, rng):
        pts = rng.standard_normal((3, 2, 5))
        clouds = PointCloudSet.from_array(pts)
        assert clouds.points.shape == (3, 2, 5) and not clouds.points.flags.writeable
        assert isinstance(clouds.clouds, tuple) and (clouds.n, clouds.d, clouds.m) == (3, 2, 5)
        for i, c in enumerate(clouds.clouds):
            assert np.shares_memory(c.points, clouds.points)
            assert not c.points.flags.writeable
            assert np.array_equal(c.points, pts[i])

    @pytest.mark.parametrize(
        "points, match",
        [
            (np.zeros((1, 2, 4)), "n >= 2"),
            (np.zeros((3, 2, 2)), "m >= d\\+1"),
            (np.full((3, 2, 4), np.inf), "finite"),
            (np.zeros((2, 4)), "n x d x m"),
        ],
    )
    def test_rejects_what_the_constructors_reject(self, points, match):
        with pytest.raises(ValueError, match=match):
            PointCloudSet.from_array(points)

    def test_points_of_a_constructed_set(self, rng):
        clouds = make_cloud_set(rng, 3, 2, 4)
        assert np.array_equal(clouds.points, [c.points for c in clouds.clouds])


@pytest.mark.parametrize("center_first", [True, False])
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=4),
    m_extra=st.integers(min_value=1, max_value=300),
    scale=st.integers(min_value=-6, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_build_gram_bitwise_equals_per_cloud_stack(center_first, n, d, m_extra, scale, seed):
    # Centring the whole (n, d, m) stack at once gives the factor that
    # centring cloud by cloud gives, to the bit.
    rng = np.random.default_rng(seed)
    shifts = rng.standard_normal((n, d, 1)) * 10.0**scale
    clouds = PointCloudSet.from_array(rng.standard_normal((n, d, d + m_extra)) + shifts)
    per_cloud = [center(c).points if center_first else c.points for c in clouds.clouds]
    factor = build_gram(clouds, center_first=center_first).factor
    assert factor.tobytes() == np.vstack(per_cloud).tobytes()


def test_writers_print_each_value_as_its_repr(rng, tmp_path):
    clouds = PointCloudSet(
        tuple(PointCloud(rng.standard_normal((2, 4)) * 10.0 ** rng.integers(-9, 9, (2, 4)))
              for _ in range(3))
    )
    stack = random_stack(rng, 2, 2, 3)
    expected_set = ["3"]
    for c in clouds.clouds:
        expected_set += ["2 4"] + [" ".join(repr(float(v)) for v in row) for row in c.points]
    expected_stack = ["2 2 3"] + [" ".join(repr(float(v)) for v in row) for row in stack.stacked]
    write_cloud_set(tmp_path / "set.txt", clouds)
    write_stack(tmp_path / "stack.txt", stack)
    assert (tmp_path / "set.txt").read_text() == "\n".join(expected_set) + "\n"
    assert (tmp_path / "stack.txt").read_text() == "\n".join(expected_stack) + "\n"
