import grid
from xiverify.cli import load_grid_file


def test_same_seed_same_grid():
    assert grid.make_grid(7, 30) == grid.make_grid(7, 30)


def test_seeds_differ_and_share_the_anchors():
    a, b = grid.make_grid(1, 20), grid.make_grid(2, 20)
    assert a != b
    assert a[:12] == b[:12] == grid.anchors()
    assert len(a) == 32


def test_points_stay_in_the_box():
    for a, re, im in grid.make_grid(3, 500):
        assert grid.ALPHA[0] <= a <= grid.ALPHA[1]
        assert grid.RE_Z[0] <= re <= grid.RE_Z[1]
        assert grid.IM_Z[0] <= im <= grid.IM_Z[1]


def test_written_grid_reads_back_exactly(tmp_path):
    points = grid.make_grid(11, 12)
    path = tmp_path / "grid.txt"
    grid.write_grid(str(path), points, 11)
    assert load_grid_file(str(path)) == [(a, complex(re, im))
                                         for a, re, im in points]
    assert path.read_text().startswith("# perfbench grid, seed 11,")
