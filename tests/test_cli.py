import os
import struct
import warnings

import numpy as np
import pytest

from slm.cli import _cap_threads, build_parser, main
from slm.textpipe import SPECIAL_TOKENS

RAW = """The cat sat home. The dog ran fast. The bird flew away.

The sun rose early. The river ran cold. The cat ran home.
"""

SMALL_MODEL = ["encoder_layers=1", "decoder_layers=1", "heads=2",
               "hidden=16", "ffn=32", "seq_len=32", "max_sentences=4",
               "dropout=0", "batch_size=2",
               "steps=6", "warmup=2", "checkpoint_every=0"]


def run(args):
    return main(list(args))


def sets(pairs):
    out = []
    for pair in pairs:
        out += ["--set", pair]
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """prepare -> build-vocab -> pretrain, shared by the later commands."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.txt"
    raw.write_text(RAW, encoding="utf-8")
    prepared = root / "prepared.txt"
    vocab = root / "vocab.txt"
    assert run(["prepare", str(raw), str(prepared)]) == 0
    assert run(["build-vocab", str(prepared), str(vocab), "--size", "64"]) == 0

    from slm.textpipe import Vocab
    n_vocab = len(Vocab.load(str(vocab)).id_to_token)

    out = root / "run"
    args = (["pretrain", "--out", str(out)]
            + sets(SMALL_MODEL + [f"vocab_size={n_vocab}",
                                  f"corpus={prepared}", f"vocab={vocab}"]))
    assert run(args) == 0
    return {"root": root, "prepared": prepared, "vocab": vocab,
            "n_vocab": n_vocab, "ckpt": out / "ckpt-final.bin",
            "metrics": out / "metrics.csv"}


def test_prepare_splits_documents_and_sentences(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(RAW, encoding="utf-8")
    prepared = tmp_path / "prepared.txt"
    assert run(["prepare", str(raw), str(prepared)]) == 0
    assert "wrote 2 documents" in capsys.readouterr().out
    blocks = prepared.read_text(encoding="utf-8").strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines() == ["The cat sat home.",
                                      "The dog ran fast.",
                                      "The bird flew away."]


def test_missing_input_exits_one_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = run(["prepare", str(missing), str(tmp_path / "out.txt")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_unknown_config_key_exits_two(capsys):
    assert run(["pretrain", "--set", "nonsense=5"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_malformed_set_pair_exits_two(capsys):
    assert run(["pretrain", "--set", "steps"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["pretrain", "--bogus"])
    assert exc.value.code == 2


def test_slm_threads_sets_every_blas_variable_even_one_already_set(
        monkeypatch):
    """Every pool the benchmark caps, Accelerate's and BLIS's included."""
    import importlib.util
    import pathlib

    run_py = pathlib.Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
    assert set(blas_vars) == set(bench.THREAD_VARS) - {"SLM_THREADS"}
    for var in blas_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("VECLIB_MAXIMUM_THREADS", "4")
    monkeypatch.setenv("SLM_THREADS", "1")
    _cap_threads()
    assert [os.environ[var] for var in blas_vars] == ["1"] * 6


def test_missing_required_path_exits_two(capsys):
    assert run(["pretrain"] + sets(SMALL_MODEL)) == 2
    assert "needs --set vocab=" in capsys.readouterr().err


def test_parser_lists_all_subcommands():
    helptext = build_parser().format_help()
    for name in ("prepare", "build-vocab", "pretrain", "eval-unshuffle",
                 "finetune-cls", "finetune-qa", "probe", "gradcheck"):
        assert name in helptext


def test_pretrain_writes_metrics_and_checkpoint(workspace, capsys):
    assert workspace["ckpt"].exists()
    lines = workspace["metrics"].read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith("#")]
    assert rows[0].startswith("step,")
    assert len(rows) == 1 + 6  # header plus one row per step


def test_eval_unshuffle_reports_scores(workspace, capsys):
    args = (["eval-unshuffle"]
            + sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                                  f"eval_corpus={workspace['prepared']}",
                                  f"checkpoint={workspace['ckpt']}"]))
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n=2 ")
    assert "em=" in lines[0] and "tau=" in lines[0]
    assert lines[1].startswith("pos_acc=")
    # both documents hold three sentences, so the one per-N line repeats
    # the overall scores
    em_tau = lines[0].split(" ", 1)[1]
    assert lines[2:] == [f"  N=3: n=2 {em_tau}"]


def test_finetune_cls_runs_from_checkpoint(workspace, capsys, tmp_path):
    tsv = tmp_path / "train.tsv"
    tsv.write_text("pos\tThe cat sat home.\n"
                   "neg\tThe dog ran fast.\n"
                   "pos\tThe sun rose early.\n"
                   "neg\tThe river ran cold.\n", encoding="utf-8")
    args = (["finetune-cls"]
            + sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                                  f"train_file={tsv}",
                                  f"checkpoint={workspace['ckpt']}",
                                  "finetune_epochs=1"]))
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out and "2 classes" in out


def test_probe_exports_then_reports(workspace, capsys, tmp_path):
    index = tmp_path / "sent.idx"
    base = sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                               f"corpus={workspace['prepared']}",
                               f"checkpoint={workspace['ckpt']}",
                               f"index={index}"])
    assert run(["probe"] + base) == 0
    first = capsys.readouterr().out
    assert "exported 6 sentence rows" in first
    assert run(["probe"] + base + sets(["query_row=1", "top_k=2"])) == 0
    report = capsys.readouterr().out
    assert "exported" not in report  # second call reuses the saved index
    assert "The dog ran fast." in report


def test_gradcheck_passes_on_small_model(capsys):
    args = (["gradcheck"]
            + sets(["hidden=8", "ffn=16", "seq_len=16", "max_sentences=2",
                    "vocab_size=16", "encoder_layers=1"]))
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "gradcheck max rel err" in out
    assert "float64" in out


def test_gradcheck_without_sentence_reps_checks_the_pretraining_layout(
        monkeypatch, capsys):
    """Pretraining packs no [SENT] and never shuffles with sentence
    representations off, so the checked example has neither."""
    from slm import objectives
    from slm.textpipe import SENT
    seen = []
    bundle = objectives.pretrain_bundle

    def spy(params, cfg, batch, *args, **kwargs):
        seen.extend(batch)
        return bundle(params, cfg, batch, *args, **kwargs)

    monkeypatch.setattr(objectives, "pretrain_bundle", spy)
    assert run(["gradcheck", "--set", "sentence_reps_enabled=false",
                "--set", "sr_enabled=false"]) == 0
    assert "gradcheck max rel err" in capsys.readouterr().out
    assert seen
    for ex in seen:
        assert SENT not in ex.token_ids
        assert ex.perm is None


def test_seed_changes_training_outcome(workspace, tmp_path, capsys):
    base = SMALL_MODEL + [f"vocab_size={workspace['n_vocab']}",
                          f"corpus={workspace['prepared']}",
                          f"vocab={workspace['vocab']}", "steps=3"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["pretrain", "--out", str(out_a), "--seed", "1"]
               + sets(base)) == 0
    assert run(["pretrain", "--out", str(out_b), "--seed", "2"]
               + sets(base)) == 0
    capsys.readouterr()
    rows_a = (out_a / "metrics.csv").read_text().splitlines()[-1]
    rows_b = (out_b / "metrics.csv").read_text().splitlines()[-1]
    assert rows_a != rows_b


@pytest.mark.parametrize("bad", [
    ["accum_steps=0"], ["batch_size=0"], ["steps=0", "warmup=0"],
    ["heads=0"], ["dropout=1.5"], ["dropout=-0.1"],
], ids=",".join)
def test_out_of_range_config_exits_two_without_traceback(
        bad, workspace, tmp_path, capsys):
    args = (["pretrain", "--out", str(tmp_path / "run")]
            + sets(SMALL_MODEL + ["vocab_size=64",
                                  f"corpus={workspace['prepared']}",
                                  f"vocab={workspace['vocab']}"] + bad))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad[0].split("=")[0] in err
    assert "Traceback" not in err


def test_log_level_shows_trainer_step_lines(workspace, tmp_path, capsys):
    base = sets(SMALL_MODEL + [f"vocab_size={workspace['n_vocab']}",
                               "steps=2", "log_every=1",
                               f"corpus={workspace['prepared']}",
                               f"vocab={workspace['vocab']}"])
    assert run(["pretrain", "--out", str(tmp_path / "quiet")] + base) == 0
    quiet = capsys.readouterr()
    assert "step 0" not in quiet.err
    assert run(["pretrain", "--out", str(tmp_path / "loud"), "-v"]
               + base) == 0
    loud = capsys.readouterr()
    assert "INFO slm.trainer: step 0 lr" in loud.err
    assert "step 1 lr" in loud.err
    assert loud.out.replace("loud", "quiet") == quiet.out
    assert run(["pretrain", "--out", str(tmp_path / "debug"),
                "--log-level", "debug"] + base) == 0
    assert "step 1 lr" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    "hidden=0", "peak_lr=nan",
    "encoder_layers=-1", "decoder_layers=-1", "peak_lr=-1",
    "finetune_lr=-1", "warmup=-1", "p_geom=7", "seed=-1",
])
def test_more_out_of_range_values_exit_two_without_traceback(
        bad, workspace, tmp_path, capsys):
    args = (["pretrain", "--out", str(tmp_path / "run")]
            + sets(SMALL_MODEL + ["vocab_size=64",
                                  f"corpus={workspace['prepared']}",
                                  f"vocab={workspace['vocab']}", bad]))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad.split("=")[0] in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_checkpoint_commands_read_the_file_once(workspace, capsys,
                                                monkeypatch):
    from slm import checkpoint
    reads = []
    load = checkpoint.load_checkpoint

    def counting_load(path, *args, **kwargs):
        reads.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counting_load)
    args = (["eval-unshuffle"]
            + sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                                  f"eval_corpus={workspace['prepared']}",
                                  f"checkpoint={workspace['ckpt']}"]))
    assert run(args) == 0
    assert reads == [str(workspace["ckpt"])]
    capsys.readouterr()


def test_checkpoint_with_wrong_tensors_still_names_them(workspace, tmp_path,
                                                        capsys):
    from slm.checkpoint import load_checkpoint, save_checkpoint
    ck = load_checkpoint(str(workspace["ckpt"]))
    del ck.params["mlm.bias"]
    bad = tmp_path / "partial.bin"
    save_checkpoint(str(bad), ck.config, ck.params, ck.step)
    args = (["eval-unshuffle"]
            + sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                                  f"eval_corpus={workspace['prepared']}",
                                  f"checkpoint={bad}"]))
    assert run(args) == 2
    assert "missing tensors: mlm.bias" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [("finetune-cls", "train.tsv"),
                                          ("finetune-qa", "train.jsonl")])
def test_empty_finetune_file_exits_one_naming_it(command, name, workspace,
                                                 tmp_path, capsys):
    empty = tmp_path / name
    empty.write_text("\n  \n", encoding="utf-8")
    args = ([command]
            + sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                                  f"train_file={empty}",
                                  f"checkpoint={workspace['ckpt']}"]))
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {empty}: no examples\n"


def test_malformed_probe_index_sidecar_exits_two(workspace, tmp_path, capsys):
    index = tmp_path / "sent.idx"
    base = sets(SMALL_MODEL + [f"vocab={workspace['vocab']}",
                               f"corpus={workspace['prepared']}",
                               f"checkpoint={workspace['ckpt']}",
                               f"index={index}", "query_row=0", "top_k=2"])
    assert run(["probe"] + base) == 0
    capsys.readouterr()
    sidecar = tmp_path / "sent.idx.jsonl"
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-3]
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["probe"] + base) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}:2: malformed record")
    assert "Traceback" not in err


def test_probe_index_sidecar_short_of_rows_exits_two(workspace, tmp_path,
                                                     capsys):
    args = checkpoint_args("probe", workspace, tmp_path, "query_row=0",
                           "top_k=2")
    assert run(args) == 0
    capsys.readouterr()
    index = tmp_path / "sent.idx"
    sidecar = tmp_path / "sent.idx.jsonl"
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    sidecar.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {sidecar}: {len(lines) - 1} records for the {len(lines)} "
        f"rows of {index}\n")


def stored_with(workspace, tmp_path, **changes):
    """A copy of the workspace checkpoint whose stored config differs."""
    from dataclasses import replace

    from slm.checkpoint import load_checkpoint, save_checkpoint
    ck = load_checkpoint(str(workspace["ckpt"]))
    path = tmp_path / "stored.bin"
    save_checkpoint(str(path), replace(ck.config, **changes), ck.params,
                    ck.step)
    return path


def test_config_file_keys_reach_checkpoint_commands(workspace, tmp_path,
                                                    capsys):
    cfg_file = tmp_path / "e.cfg"
    cfg_file.write_text(f"checkpoint={workspace['ckpt']}\n"
                        f"eval_corpus={workspace['prepared']}\n"
                        f"vocab={workspace['vocab']}\n", encoding="utf-8")
    assert run(["eval-unshuffle", "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out.startswith("n=2 ")


def test_seed_flag_overrides_the_stored_seed(workspace, tmp_path, capsys,
                                             monkeypatch):
    from slm import trainer
    seeds = []
    evaluate = trainer.evaluate_unshuffle

    def recording(params, cfg, packed, seed=0):
        seeds.append(seed)
        return evaluate(params, cfg, packed, seed=seed)

    monkeypatch.setattr(trainer, "evaluate_unshuffle", recording)
    ckpt = stored_with(workspace, tmp_path, seed=7)
    base = ["eval-unshuffle"] + sets([f"checkpoint={ckpt}",
                                      f"eval_corpus={workspace['prepared']}"])
    assert run(base) == 0
    assert run(base + ["--seed", "0"]) == 0
    assert run(base + ["--set", "seed=0"]) == 0
    assert seeds == [7, 0, 0]
    capsys.readouterr()


def test_set_top_k_overrides_the_stored_value(workspace, tmp_path, capsys):
    ckpt = stored_with(workspace, tmp_path, top_k=2, query_row=0)
    base = sets([f"checkpoint={ckpt}", f"corpus={workspace['prepared']}",
                 f"index={tmp_path / 'sent.idx'}"])
    assert run(["probe"] + base) == 0
    stored = capsys.readouterr().out
    assert "2. sim=" in stored and "3. sim=" not in stored
    assert run(["probe"] + base + ["--set", "top_k=5"]) == 0
    assert "5. sim=" in capsys.readouterr().out


@pytest.mark.parametrize("change,tensor,stored,wanted", [
    ("hidden=32", "emb.token", "16)", "32)"),
    ("ffn=64", "enc.0.ffn.w1", "(16, 32)", "(16, 64)"),
])
def test_config_that_misdescribes_the_tensors_exits_two(
        change, tensor, stored, wanted, workspace, capsys):
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={workspace['ckpt']}",
        f"eval_corpus={workspace['prepared']}", change])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"tensor {tensor} " in err and stored in err and wanted in err


def test_directory_checkpoint_exits_one_naming_it(workspace, tmp_path,
                                                  capsys):
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={tmp_path}", f"eval_corpus={workspace['prepared']}"])
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read checkpoint {tmp_path}")


@pytest.mark.parametrize("case", ["prepare", "build-vocab", "corpus",
                                  "vocab", "config"])
def test_non_utf8_input_exits_one_naming_it(case, workspace, tmp_path,
                                            capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"The cat sat \xff home.\n")
    pretrain = ["pretrain", "--out", str(tmp_path / "run")]
    paths = SMALL_MODEL + [f"vocab_size={workspace['n_vocab']}",
                           f"corpus={workspace['prepared']}",
                           f"vocab={workspace['vocab']}"]
    args = {
        "prepare": ["prepare", str(binary), str(tmp_path / "out.txt")],
        "build-vocab": ["build-vocab", str(binary), str(tmp_path / "v.txt")],
        "corpus": pretrain + sets(paths + [f"corpus={binary}"]),
        "vocab": pretrain + sets(paths + [f"vocab={binary}"]),
        "config": pretrain + ["--config", str(binary)] + sets(paths),
    }[case]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(binary) in err
    assert "Traceback" not in err


CHECKPOINT_COMMANDS = ["eval-unshuffle", "finetune-cls", "finetune-qa",
                       "probe"]
UNREAD_FLAGS = ([(c, flag) for c in CHECKPOINT_COMMANDS + ["gradcheck"]
                 for flag in ("--out", "--profile")])


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[" ".join(case) for case in UNREAD_FLAGS])
def test_flag_the_command_does_not_read_is_a_usage_error(command, flag,
                                                         capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} x" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "eval-unshuffle"])
def test_retired_dev_file_key_exits_two(command, capsys):
    assert run([command, "--set", "dev_file=x"]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'dev_file'\n"


@pytest.mark.parametrize("command", ["pretrain", "eval-unshuffle"])
def test_retired_position_mode_key_exits_two(command, capsys):
    assert run([command, "--set", "position_mode=resequence"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown config key 'position_mode'\n")


def checkpoint_storing(workspace, path, monkeypatch, **stored):
    """The workspace checkpoint saved at ``path`` with the ``stored``
    pairs added to its stored config, as a checkpoint written while
    RunConfig had those keys would hold them."""
    from slm import checkpoint
    from slm.config import config_echo
    ck = checkpoint.load_checkpoint(str(workspace["ckpt"]))
    monkeypatch.setattr(checkpoint, "config_echo", lambda cfg: sorted(
        {**dict(config_echo(cfg)), **stored}.items()))
    checkpoint.save_checkpoint(str(path), ck.config, ck.params, ck.step)
    monkeypatch.undo()
    assert all(f"{k}={v}".encode() in path.read_bytes()
               for k, v in stored.items())
    return path


def test_checkpoint_stored_with_travel_positions_exits_two(
        workspace, tmp_path, capsys, monkeypatch):
    travel = checkpoint_storing(workspace, tmp_path / "travel.bin",
                                monkeypatch, position_mode="travel")
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={travel}", f"eval_corpus={workspace['prepared']}"])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {travel}: stored config: retired key "
                          "position_mode=travel")
    assert "Traceback" not in err


def test_qa_record_with_a_non_string_context_exits_one(workspace, tmp_path,
                                                      capsys):
    args = checkpoint_args("finetune-qa", workspace, tmp_path)
    qa = tmp_path / "train.jsonl"
    qa.write_text(QA_TRAIN + QA_TRAIN.replace(
        '"The cat sat home. The dog ran fast."', "5"), encoding="utf-8")
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {qa}:2: malformed QA record: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("offset", [42, -1])
def test_vocab_size_unlike_the_vocab_file_exits_two(offset, workspace,
                                                    tmp_path, capsys):
    n = workspace["n_vocab"]
    args = (["pretrain", "--out", str(tmp_path / "run")]
            + sets(SMALL_MODEL + [f"vocab_size={n + offset}",
                                  f"corpus={workspace['prepared']}",
                                  f"vocab={workspace['vocab']}"]))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {workspace['vocab']} holds {n} tokens but "
                   f"vocab_size is {n + offset}\n")
    assert not (tmp_path / "run").exists()


def pretrain_args(workspace, tmp_path, *pairs):
    return (["pretrain", "--out", str(tmp_path / "run")]
            + sets(SMALL_MODEL + [f"vocab_size={workspace['n_vocab']}",
                                  f"corpus={workspace['prepared']}",
                                  f"vocab={workspace['vocab']}", *pairs]))


CLS_TRAIN = "pos\tThe cat sat home.\nneg\tThe dog ran fast.\n"
QA_TRAIN = ('{"context": "The cat sat home. The dog ran fast.", '
            '"question": "who ran", "answer_start_token": 4, '
            '"answer_end_token": 5}\n')


def checkpoint_args(command, workspace, tmp_path, *pairs):
    """``command`` on the workspace checkpoint with every file it reads;
    probe gets a fresh index path, so it exports first."""
    cls = tmp_path / "train.tsv"
    cls.write_text(CLS_TRAIN, encoding="utf-8")
    qa = tmp_path / "train.jsonl"
    qa.write_text(QA_TRAIN, encoding="utf-8")
    train = {"finetune-cls": cls, "finetune-qa": qa}.get(command, "")
    return [command] + sets([
        f"checkpoint={workspace['ckpt']}", f"vocab={workspace['vocab']}",
        f"eval_corpus={workspace['prepared']}",
        f"corpus={workspace['prepared']}", f"index={tmp_path / 'sent.idx'}",
        f"train_file={train}", "finetune_epochs=1", *pairs])


def test_diverging_pretrain_exits_one_without_traceback(workspace, tmp_path,
                                                         capsys):
    args = pretrain_args(workspace, tmp_path, "peak_lr=1e30", "warmup=0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: non-finite training loss"
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_diverging_finetune_exits_one_without_traceback(workspace, tmp_path,
                                                         capsys):
    args = checkpoint_args("finetune-cls", workspace, tmp_path,
                           "finetune_lr=1e30", "finetune_epochs=3")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: non-finite gradient for: ")
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_finite_checkpoint_tensor_exits_two_naming_it(workspace, tmp_path,
                                                         capsys):
    from slm.checkpoint import load_checkpoint, save_checkpoint
    ck = load_checkpoint(str(workspace["ckpt"]))
    ck.params["enc.0.ffn.w1"].data[0, 1] = np.nan
    bad = tmp_path / "nan.bin"
    save_checkpoint(str(bad), ck.config, ck.params, ck.step)
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={bad}", f"eval_corpus={workspace['prepared']}"])
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: tensor enc.0.ffn.w1 holds non-finite values\n")


def test_non_finite_probe_index_row_exits_two_naming_it(workspace, tmp_path,
                                                       capsys):
    args = checkpoint_args("probe", workspace, tmp_path, "query_row=0",
                           "top_k=2")
    assert run(args) == 0
    capsys.readouterr()
    index_path = str(tmp_path / "sent.idx")
    blob = bytearray(open(index_path, "rb").read())
    _, hidden = struct.unpack_from("<QQ", blob)
    at = 16 + 4 * (3 * hidden + 1)          # header, then row 3, column 1
    blob[at:at + 4] = np.float32(np.inf).tobytes()
    open(index_path, "wb").write(bytes(blob))
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {index_path}: row 3 holds non-finite values\n")


def crafted_checkpoint(workspace, tmp_path, field):
    """The workspace checkpoint with its echo length, or the first
    tensor's shape, replaced by a size far beyond the file."""
    from slm.checkpoint import MAGIC
    blob = workspace["ckpt"].read_bytes()
    echo_at = len(MAGIC) + 4 + 8            # past magic, version, step
    if field == "tensor dims 2^32 x 2^32":
        (echo_len,) = struct.unpack_from("<Q", blob, echo_at)
        name_at = echo_at + 8 + echo_len + 4    # past the tensor count
        (name_len,) = struct.unpack_from("<H", blob, name_at)
        ndim_at = name_at + 2 + name_len
        ndim = blob[ndim_at]
        blob = (blob[:ndim_at] + struct.pack("<BQQ", 2, 2**32, 2**32)
                + blob[ndim_at + 1 + 8 * ndim:])
    else:
        length = {"echo length 2^63+5": 2**63 + 5,
                  "echo length 2^40": 2**40}[field]
        blob = (blob[:echo_at] + struct.pack("<Q", length)
                + blob[echo_at + 8:])
    path = tmp_path / "crafted.bin"
    path.write_bytes(blob)
    return path


@pytest.mark.parametrize("field", ["echo length 2^63+5", "echo length 2^40",
                                   "tensor dims 2^32 x 2^32"])
def test_checkpoint_size_beyond_the_file_exits_two(field, workspace,
                                                   tmp_path, capsys):
    bad = crafted_checkpoint(workspace, tmp_path, field)
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={bad}", f"eval_corpus={workspace['prepared']}"])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: file truncated: a field needs ")
    assert "Traceback" not in err


@pytest.mark.parametrize("n,hidden", [(2**40, 16), (2**62, 2**62)],
                         ids=["2^40x16", "2^62x2^62"])
def test_probe_index_size_beyond_the_file_exits_two(n, hidden, workspace,
                                                    tmp_path, capsys):
    index = tmp_path / "sent.idx"
    index.write_bytes(struct.pack("<QQ", n, hidden) + bytes(64))
    args = ["probe"] + sets([f"checkpoint={workspace['ckpt']}",
                             f"index={index}", "query_row=0"])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {index}: file truncated: a field needs "
                          f"{4 * n * hidden} bytes, 64 remain")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
def test_vocab_larger_than_vocab_size_exits_two(command, workspace, tmp_path,
                                                capsys):
    n = workspace["n_vocab"]
    big = tmp_path / "big.txt"
    big.write_text(workspace["vocab"].read_text(encoding="utf-8")
                   + "zebra\nyak\n", encoding="utf-8")
    args = checkpoint_args(command, workspace, tmp_path, f"vocab={big}")
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {big} holds {n + 2} tokens but vocab_size is {n}\n")
    assert not (tmp_path / "sent.idx").exists()


@pytest.mark.parametrize("tokens,message", [
    (["cat", "dog"], "vocab must start with the special tokens"),
    (SPECIAL_TOKENS + ["cat", "dog", "cat"], "vocab contains duplicate tokens"),
], ids=["no-specials", "duplicate"])
def test_malformed_vocab_file_exits_two_naming_it(tokens, message, workspace,
                                                  tmp_path, capsys):
    bad = tmp_path / "bad-vocab.txt"
    bad.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    args = ["pretrain", "--out", str(tmp_path / "run")] + sets(
        SMALL_MODEL + [f"vocab_size={workspace['n_vocab']}",
                       f"corpus={workspace['prepared']}", f"vocab={bad}"])
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
def test_vocab_smaller_than_vocab_size_still_runs(command, workspace,
                                                  tmp_path, capsys):
    lines = workspace["vocab"].read_text(encoding="utf-8").splitlines()
    small = tmp_path / "small.txt"
    small.write_text("\n".join(lines[:12]) + "\n", encoding="utf-8")
    args = checkpoint_args(command, workspace, tmp_path, f"vocab={small}")
    assert run(args) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["gradcheck", "pretrain",
                                     "eval-unshuffle"])
def test_retired_gradcheck_dtype_key_exits_two(command, capsys):
    assert run([command, "--set", "gradcheck_dtype=float64"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown config key 'gradcheck_dtype'\n")


@pytest.mark.parametrize("command", ["pretrain", "eval-unshuffle",
                                     "gradcheck"])
@pytest.mark.parametrize("pair", ["p_geom=0.3", "max_span=0", "mask_rate=2",
                                  "replace_mask=1.5", "replace_random=0.1",
                                  "gradcheck_tol=1",
                                  "layer_norm_eps=1e-05", "beta1=0.9",
                                  "beta2=0.999", "attn_dropout=0.1",
                                  "weight_decay=-1", "grad_clip=nan",
                                  "max_answer_len=30"])
def test_retired_masking_and_tolerance_keys_exit_two(command, pair, capsys):
    assert run([command, "--set", pair]) == 2
    key = pair.split("=")[0]
    assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"


@pytest.mark.parametrize("command", ["pretrain", "eval-unshuffle"])
@pytest.mark.parametrize("pair", ["weight_decay=0.01", "grad_clip=1.0",
                                  "max_answer_len=30"])
def test_retired_optimizer_and_answer_window_keys_in_a_config_file_exit_two(
        command, pair, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"steps = 2\n{pair}\n", encoding="utf-8")
    assert run([command, "--config", str(config)]) == 2
    key = pair.split("=")[0]
    assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
def test_checkpoint_storing_the_retired_values_runs(command, workspace,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    """A checkpoint written while weight_decay, grad_clip and
    max_answer_len were keys runs in every checkpoint command when it
    holds the values the code now uses."""
    old = checkpoint_storing(workspace, tmp_path / "old.bin", monkeypatch,
                             weight_decay="0.01", grad_clip="1.0",
                             max_answer_len="30")
    args = checkpoint_args(command, workspace, tmp_path, f"checkpoint={old}")
    assert run(args) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["pretrain", "gradcheck",
                                     "eval-unshuffle"])
def test_negative_seed_exits_two(command, workspace, tmp_path, capsys):
    args = ([command] if command != "eval-unshuffle"
            else checkpoint_args(command, workspace, tmp_path))
    assert run(args + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_build_vocab_of_a_file_without_documents_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n\n", encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    assert run(["build-vocab", str(empty), str(vocab)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no documents found\n"
    assert not vocab.exists()


def test_qa_gold_span_outside_the_context_names_the_line(workspace, tmp_path,
                                                         capsys):
    args = checkpoint_args("finetune-qa", workspace, tmp_path)
    qa = tmp_path / "train.jsonl"
    qa.write_text(QA_TRAIN + '{"context": "The cat sat home", "question": '
                  '"who sat", "answer_start_token": 2, '
                  '"answer_end_token": 9}\n', encoding="utf-8")
    assert run(args) == 1
    assert capsys.readouterr().err == (
        f"error: {qa}:2: gold span [2,9] outside context of 4 words\n")


def test_classification_text_without_words_names_the_line(workspace,
                                                          tmp_path, capsys):
    args = checkpoint_args("finetune-cls", workspace, tmp_path)
    tsv = tmp_path / "train.tsv"
    tsv.write_text("pos\tThe cat sat home.\tThe dog ran fast.\n"
                   "x\t \tb\n", encoding="utf-8")
    assert run(args) == 1
    assert capsys.readouterr().err == (
        f"error: {tsv}:2: classification text has no words\n")


def test_failed_probe_export_leaves_no_index(workspace, tmp_path, capsys,
                                            monkeypatch):
    """A matrix write that fails partway leaves no index and no temporary
    file, so the next probe exports afresh."""
    from slm import probe
    args = checkpoint_args("probe", workspace, tmp_path, "query_row=0",
                           "top_k=2")
    index = tmp_path / "sent.idx"
    write_atomic = probe.write_atomic

    def disk_full_on_the_matrix(path, write):
        def header_then_full(fh):
            fh.write(b"\0" * 16)
            raise OSError("disk full")
        write_atomic(path, header_then_full if path == str(index) else write)

    monkeypatch.setattr(probe, "write_atomic", disk_full_on_the_matrix)
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {index}: disk full\n"
    monkeypatch.undo()
    assert not index.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert run(args) == 0
    assert "exported 6 sentence rows" in capsys.readouterr().out
    assert probe.load_index(str(index)).matrix.shape[0] == 6


def test_probe_export_with_a_non_finite_row_exits_two_and_writes_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    """An export whose matrix holds NaN is refused before the index or
    its sidecar is written, so no later run loads a broken index."""
    from slm import probe
    export_reps = probe.export_reps

    def nan_in_row_4(*args):
        index = export_reps(*args)
        index.matrix[4, 0] = np.nan
        return index

    monkeypatch.setattr(probe, "export_reps", nan_in_row_4)
    index = tmp_path / "sent.idx"
    assert run(checkpoint_args("probe", workspace, tmp_path,
                               "query_row=0")) == 2
    assert capsys.readouterr().err == (
        f"error: {index}: row 4 holds non-finite values; the index is not "
        "written\n")
    assert not index.exists()
    assert not (tmp_path / "sent.idx.jsonl").exists()


@pytest.mark.parametrize("command,name", [("prepare", "prepared.txt"),
                                          ("build-vocab", "vocab.txt")])
def test_failed_prepare_or_vocab_write_leaves_no_file(
        command, name, workspace, tmp_path, capsys, monkeypatch):
    """A write that fails partway (a full disk) leaves neither a
    truncated output nor a temporary file, and names the output."""
    from slm import errors
    out = tmp_path / name
    write_atomic = errors.write_atomic

    def disk_full(path, write):
        def half_then_full(fh):
            fh.write(b"[PAD]\n")
            raise OSError("disk full")
        write_atomic(path, half_then_full)

    monkeypatch.setattr("slm.textpipe.write_atomic", disk_full)
    source = workspace["root"] / "raw.txt" if command == "prepare" \
        else workspace["prepared"]
    assert run([command, str(source), str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: disk full\n"
    assert list(tmp_path.iterdir()) == []


def test_row_selected_readers_print_and_write_the_full_encode_bytes(
        workspace, tmp_path, capsys, monkeypatch):
    """eval-unshuffle's scores, finetune-cls's accuracy and probe's index
    are the bytes they are when every row runs through the last layer."""
    from slm import heads, probe, trainer
    from util import encode_all_rows

    def outputs(tag):
        (tmp_path / tag).mkdir()
        printed = []
        for command in ("eval-unshuffle", "finetune-cls", "probe"):
            assert run(checkpoint_args(command, workspace,
                                       tmp_path / tag)) == 0
            printed.append(capsys.readouterr().out.replace(
                str(tmp_path / tag), ""))
        index = tmp_path / tag / "sent.idx"
        return printed, index.read_bytes(), (
            tmp_path / tag / "sent.idx.jsonl").read_bytes()

    selected = outputs("selected")
    for module in (trainer, probe, heads):
        monkeypatch.setattr(module, "encode_batch", encode_all_rows)
    assert outputs("full") == selected


def test_out_dir_under_a_file_exits_one_naming_it(workspace, tmp_path,
                                                  capsys):
    out = workspace["prepared"] / "sub"
    args = pretrain_args(workspace, tmp_path)
    args[args.index("--out") + 1] = str(out)
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: Not a directory\n"
    assert "Traceback" not in captured.out + captured.err


def test_full_disk_while_checkpointing_exits_one_leaving_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    """A checkpoint write that runs out of space names the checkpoint,
    exits 1 and leaves neither it nor its temporary file."""
    import errno

    from slm import checkpoint
    write_atomic = checkpoint.write_atomic

    def disk_full(path, write):
        def half_then_full(fh):
            fh.write(b"\0" * 64)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_atomic(path, half_then_full)

    monkeypatch.setattr(checkpoint, "write_atomic", disk_full)
    assert run(pretrain_args(workspace, tmp_path, "steps=2")) == 1
    captured = capsys.readouterr()
    ckpt = tmp_path / "run" / "ckpt-final.bin"
    assert captured.err == (f"error: {ckpt}: "
                            f"{os.strerror(errno.ENOSPC)}\n")
    assert "Traceback" not in captured.out + captured.err
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "metrics.csv"]


def test_eval_unshuffle_without_sentence_markers_exits_two(workspace,
                                                          tmp_path, capsys):
    assert run(pretrain_args(workspace, tmp_path, "steps=3",
                             "sentence_reps_enabled=false",
                             "sr_enabled=false")) == 0
    capsys.readouterr()
    args = ["eval-unshuffle"] + sets([
        f"checkpoint={tmp_path / 'run' / 'ckpt-final.bin'}",
        f"eval_corpus={workspace['prepared']}"])
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: unshuffle eval needs sentence representations enabled\n")


def test_out_of_memory_exits_one(workspace, tmp_path, capsys, monkeypatch):
    from slm import trainer

    def exhausted(docs, cfg, out_dir):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(trainer, "train_loop", exhausted)
    assert run(pretrain_args(workspace, tmp_path)) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 149. GiB for an array\n")
