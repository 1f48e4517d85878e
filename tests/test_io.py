import numpy as np
import pytest

from priorsid import (
    DcGain,
    DcGainMatrix,
    FirstOrder,
    FirstOrderDecay,
    GainRatio,
    IdentDataset,
    IntegratorChannel,
    MarkovIndexing,
    MarkovSequence,
    SecondOrderRecurrence,
    StateSpaceModel,
    ZeroChannel,
    compile_priors,
)
from priorsid.fileio import (
    DatasetFormatError,
    load_dataset,
    prior_from_dict,
    priors_from_file,
    prototype_from_dict,
    read_model_file,
    write_constraints_csv,
    write_dataset,
    write_markov_csv,
    write_model_file,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "1,3,4", "2,5,6"])
        data = load_dataset(path, Ts=1.0)
        assert data.n_samples == 3
        np.testing.assert_array_equal(data.U.ravel(), [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(data.Y.ravel(), [2.0, 4.0, 6.0])

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(149)
        data = IdentDataset(
            U=rng.standard_normal((20, 2)), Y=rng.standard_normal((20, 1)), Ts=0.25
        )
        path = tmp_path / "d.csv"
        write_dataset(path, data)
        back = load_dataset(path, Ts=0.25)
        np.testing.assert_array_equal(back.U, data.U)
        np.testing.assert_array_equal(back.Y, data.Y)

    def test_missing_y_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1", "0,1", "1,2"])
        with pytest.raises(DatasetFormatError, match="y1"):
            load_dataset(path, Ts=1.0)

    def test_malformed_column_name(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,z1", "0,1,2"])
        with pytest.raises(DatasetFormatError, match="z1"):
            load_dataset(path, Ts=1.0)

    def test_gap_in_numbering(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,u3,y1", "0,1,2,3"])
        with pytest.raises(DatasetFormatError, match="u2"):
            load_dataset(path, Ts=1.0)

    def test_ragged_row_numbered(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "1,3"])
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path, Ts=1.0)

    def test_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "1,nan,4"])
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path, Ts=1.0)

    def test_spacing_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "1,3,4"])
        with pytest.raises(DatasetFormatError, match="does not match"):
            load_dataset(path, Ts=0.5)

    def test_interior_blank_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "", "1,3,4"])
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path, Ts=1.0)

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["t,u1,y1", "0,1,2", "0,3,4"])
        with pytest.raises(DatasetFormatError, match="strictly increasing"):
            load_dataset(path, Ts=1.0)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([], "empty file"),
            (["t,u1,y1", "0,1,2", "1,x,4"], "line 3: cannot parse 'x' as a number"),
            (["t,u1,y1"], "no data rows"),
        ],
    )
    def test_refused(self, tmp_path, lines, message):
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(path, Ts=1.0)

    def test_header_must_start_with_t(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["u1,y1", "1,2"])
        with pytest.raises(DatasetFormatError, match="'t'"):
            load_dataset(path, Ts=1.0)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(151)
        model = StateSpaceModel(
            A=0.5 * np.eye(3),
            B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)),
            D=rng.standard_normal((2, 2)),
            Ts=0.5,
        )
        path = tmp_path / "m.txt"
        write_model_file(path, model)
        back = read_model_file(path)
        np.testing.assert_array_equal(back.A, model.A)
        np.testing.assert_array_equal(back.B, model.B)
        np.testing.assert_array_equal(back.C, model.C)
        np.testing.assert_array_equal(back.D, model.D)
        assert back.Ts == model.Ts

    def test_round_trip_feedthrough(self, tmp_path):
        model = StateSpaceModel(
            A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((1, 0)),
            D=[[1.0, -2.0]], Ts=1.0,
        )
        path = tmp_path / "m.txt"
        write_model_file(path, model)
        back = read_model_file(path)
        assert back.n == 0
        np.testing.assert_array_equal(back.D, model.D)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 1 1\nA:\n0.5\nB:\n")
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_model_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty model file"),
            ("1 1 1\nA:\n0.5\n", "expected 'n n_u n_y Ts'"),
            ("1.5 1 1 1\nA:\n0.5\n", "cannot parse dims line"),
            ("1 1 1 1\nA:\n0.5\nC:\n1\n", "expected block label 'B:'"),
            ("2 1 1 1\nA:\n0.5 0\n0\n", "block A row 1: expected 2 entries, found 1"),
        ],
    )
    def test_refused(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=message):
            read_model_file(path)


class TestMarkovCsv:
    def test_layout(self, tmp_path):
        seq = MarkovSequence(blocks=np.arange(8.0).reshape(2, 2, 2), Ts=1.0)
        path = tmp_path / "m.csv"
        write_markov_csv(path, seq)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,i,j,value"
        assert lines[1] == "0,1,1,0"
        assert lines[2] == "0,1,2,1"
        assert lines[-1] == "1,2,2,7"


class TestConstraintsCsv:
    def test_layout(self, tmp_path):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=2)
        cs = compile_priors([DcGain(i=1, j=1, value=2.0)], idx, Ts=1.0)
        path = tmp_path / "c.csv"
        write_constraints_csv(path, cs)
        lines = path.read_text().splitlines()
        assert lines[0] == "tag,c0,c1,c2,rhs"
        fields = lines[1].split(",")
        assert fields[-4:] == ["1", "1", "1", "2"]


class TestPriorParsing:
    def test_all_kinds(self):
        entries = [
            {"type": "dc_gain", "i": 1, "j": 1, "value": 2.0},
            {"type": "dc_gain_matrix", "matrix": [[1.0, 2.0]]},
            {"type": "gain_ratio", "i": 1, "j": 1, "p": 1, "q": 2, "ratio": 0.5},
            {"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0, "gain": 2.0},
            {"type": "integrator", "i": 1, "j": 2},
            {
                "type": "second_order_recurrence",
                "i": 1,
                "j": 1,
                "alpha1": -1.5,
                "alpha0": 0.56,
                "seed": [1.0, 2.0],
            },
            {"type": "zero_channel", "i": 1, "j": 2},
        ]
        parsed = [prior_from_dict(e) for e in entries]
        assert isinstance(parsed[0], DcGain)
        assert isinstance(parsed[1], DcGainMatrix)
        assert isinstance(parsed[2], GainRatio)
        assert isinstance(parsed[3], FirstOrderDecay) and parsed[3].gain == 2.0
        assert isinstance(parsed[4], IntegratorChannel) and parsed[4].gain is None
        assert isinstance(parsed[5], SecondOrderRecurrence)
        assert parsed[5].seed == (1.0, 2.0)
        assert isinstance(parsed[6], ZeroChannel)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown prior type"):
            prior_from_dict({"type": "bogus"})

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            prior_from_dict({"type": "dc_gain", "i": 1, "j": 1})

    def test_extra_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            prior_from_dict({"type": "zero_channel", "i": 1, "j": 1, "x": 0})

    def test_fractional_channel_index(self):
        # int() would truncate 1.7 to channel 1
        with pytest.raises(ValueError, match="field 'i'"):
            prior_from_dict({"type": "dc_gain", "i": 1.7, "j": 1, "value": 2.0})

    def test_seed_must_be_a_pair(self):
        entry = {"type": "second_order_recurrence", "i": 1, "j": 1,
                 "alpha1": -1.5, "alpha0": 0.56, "seed": [1.0, 2.0, 3.0]}
        with pytest.raises(ValueError, match="seed must be a"):
            prior_from_dict(entry)

    def test_priors_file_forms(self, tmp_path):
        as_list = tmp_path / "a.json"
        as_list.write_text('[{"type": "zero_channel", "i": 1, "j": 1}]')
        as_dict = tmp_path / "b.json"
        as_dict.write_text('{"priors": [{"type": "zero_channel", "i": 1, "j": 1}]}')
        assert priors_from_file(as_list) == priors_from_file(as_dict)


class TestPrototypeParsing:
    def test_first_order(self):
        proto = prototype_from_dict({"proto": "first_order", "gain": 2.0, "tau": 10.0})
        assert proto == FirstOrder(K=2.0, tau=10.0)

    def test_missing_param(self):
        with pytest.raises(ValueError, match="missing key 'tau'"):
            prototype_from_dict({"proto": "first_order", "gain": 2.0})

    def test_unknown_proto(self):
        with pytest.raises(ValueError, match="unknown prototype"):
            prototype_from_dict({"proto": "owl"})

    def test_extra_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            prototype_from_dict({"proto": "integrator", "gain": 1.0, "tau": 2.0})

    @pytest.mark.parametrize("key", ["gain", "tau"])
    @pytest.mark.parametrize("bad", [None, [1, 2]])
    def test_value_of_wrong_type_names_field(self, key, bad):
        entry = {"proto": "first_order", "gain": 2.0, "tau": 1.0, key: bad}
        with pytest.raises(ValueError, match=f"prototype 'first_order' field '{key}'"):
            prototype_from_dict(entry)
