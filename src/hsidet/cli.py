"""Command-line entry point.

Subcommands compose the pipeline: ``synth`` writes a synthetic scene,
``detect`` runs one detector on a cube, ``eval`` scores saved maps against
a mask, and ``compare`` chains all three to produce a method-comparison
table.  Every run is deterministic given its flags and seed, and a
manifest JSON is written next to the outputs for exact replay.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys

from . import cube as hio
from .config import DetectorConfig, preset_config
from .detector import (
    fuse_scores,
    hierarchical_residuals,
    normalize_scores,
    orient_scores,
    shr_detect,
    std_detect,
    wshr_detect,
)
from .hierdict import WindowSpec
from .metrics import compare as compare_maps
from .metrics import write_comparison
from .predetect import ace_detect, cem_detect
from .synth import PRESETS, generate

log = logging.getLogger("hsidet")

METHODS = ("cem", "ace", "std", "shr", "wshr")


def _run_method(method: str, cube, signature, config: DetectorConfig):
    if method == "cem":
        return cem_detect(cube, signature)
    if method == "ace":
        return ace_detect(cube, signature)
    if method == "std":
        return std_detect(cube, signature, config)
    if method == "shr":
        return shr_detect(cube, signature, config)
    if method == "wshr":
        return wshr_detect(cube, signature, config)
    raise ValueError(f"unknown method {method!r}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, help="L1 weight (default 0.1)")
    p.add_argument("--sparsity", type=int, help="sparsity cap k (default 5)")
    p.add_argument("--gamma", type=float, help="background-score weight (default 0.3)")
    p.add_argument("--owr", type=int, help="outer window side (odd)")
    p.add_argument("--iwr", type=int, help="inner window side (odd)")
    p.add_argument("--target-atoms", type=int, help="global target dictionary atoms")
    p.add_argument("--bg-atoms", type=int, help="global background dictionary atoms")
    p.add_argument("--train-targets", type=int, help="target training sample count")
    p.add_argument("--bg-fraction", type=float, help="background training fraction")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--threads", type=int, help="parallel worker cap (default 1)")
    p.add_argument("--orientation", choices=("flip_target", "flip_both", "literal"))


def _config_from_args(args, base: DetectorConfig) -> DetectorConfig:
    overrides = {}
    for flag, field in (
        ("lam", "lam"), ("sparsity", "k"), ("gamma", "gamma"),
        ("target_atoms", "n_target_atoms"), ("bg_atoms", "n_bg_atoms"),
        ("train_targets", "n_target_train"), ("bg_fraction", "bg_fraction"),
        ("seed", "seed"), ("threads", "threads"), ("orientation", "orientation"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    owr = getattr(args, "owr", None)
    iwr = getattr(args, "iwr", None)
    if owr is not None or iwr is not None:
        overrides["window"] = WindowSpec(
            owr if owr is not None else base.window.outer,
            iwr if iwr is not None else base.window.inner,
        )
    return base.with_overrides(**overrides)


def _write_manifest(out_dir: str, payload: dict) -> None:
    payload = {**payload, "timestamp": datetime.datetime.now().isoformat()}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_scene(out_dir: str, cube, mask, signature) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cube": os.path.join(out_dir, "scene.hdr"),
        "mask": os.path.join(out_dir, "scene.mask"),
        "signature": os.path.join(out_dir, "scene.sig"),
    }
    hio.save_cube(cube, paths["cube"])
    hio.save_mask(mask, paths["mask"])
    hio.save_signature(signature, paths["signature"])
    return paths


def cmd_synth(args) -> int:
    spec = PRESETS[args.preset]
    if args.seed is not None:
        spec = type(spec)(**{**spec.__dict__, "seed": args.seed})
    cube, mask, signature = generate(spec)
    paths = _write_scene(args.out, cube, mask, signature)
    _write_manifest(args.out, {"command": "synth", "preset": args.preset,
                               "spec": spec.__dict__, "outputs": paths})
    log.info("wrote scene to %s", args.out)
    return 0


def cmd_detect(args) -> int:
    cube = hio.load_cube(args.cube)
    signature = hio.load_signature(args.signature)
    config = _config_from_args(args, DetectorConfig())
    smap = _run_method(args.method, cube, signature, config)
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.method)
    hio.save_scoremap(smap, base)
    _write_manifest(args.out, {
        "command": "detect", "method": args.method, "config": config.to_dict(),
        "inputs": {"cube": args.cube, "signature": args.signature},
        "outputs": {"scores": base + ".f32", "scores_csv": base + ".csv"},
    })
    log.info("wrote %s score map to %s", args.method, base)
    return 0


def cmd_eval(args) -> int:
    truth = hio.load_mask(args.mask)
    named = []
    for entry in args.scores:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            name = os.path.splitext(os.path.basename(entry))[0]
            path = entry
        named.append((name, hio.load_scoremap(path)))
    rows = compare_maps(named, truth)
    write_comparison(rows, args.out)
    for name, value, _ in rows:
        print(f"{name},{value:.6f}")
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (choose from {','.join(METHODS)})")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed more than once")
    out = args.out
    os.makedirs(out, exist_ok=True)
    if args.preset:
        cube, mask, signature = generate(PRESETS[args.preset])
        scene_paths = _write_scene(out, cube, mask, signature)
        base_config = preset_config(args.preset)
    else:
        cube = hio.load_cube(args.cube)
        mask = hio.load_mask(args.mask)
        signature = hio.load_signature(args.signature)
        scene_paths = {"cube": args.cube, "mask": args.mask, "signature": args.signature}
        base_config = DetectorConfig()
    config = _config_from_args(args, base_config)

    # shr and wshr share everything up to the residual maps; when both are
    # requested, run that stage once and fuse twice.
    shared = {}
    if "shr" in methods and "wshr" in methods:
        r_t, r_b = hierarchical_residuals(cube, signature, config)
        S_t, S_b = normalize_scores(r_t, r_b)
        S_t, S_b = orient_scores(S_t, S_b, config.orientation)
        shared["wshr"] = fuse_scores(S_t, S_b, config.gamma)
        shared["shr"] = fuse_scores(S_t, S_b, 0.5)
    named = []
    for m in methods:
        log.info("running %s", m)
        smap = shared.get(m)
        if smap is None:
            smap = _run_method(m, cube, signature, config)
        hio.save_scoremap(smap, os.path.join(out, m))
        named.append((m, smap))
    rows = compare_maps(named, mask)
    write_comparison(rows, out)
    _write_manifest(out, {
        "command": "compare", "preset": args.preset, "methods": methods,
        "config": config.to_dict(), "inputs": scene_paths,
    })
    for name, value, _ in rows:
        print(f"{name},{value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsidet",
        description="Hyperspectral target detection with hierarchical sparse "
        "representation and weighted score fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, help="override the preset seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run one detector on a cube")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--cube", required=True, help="cube header (.hdr) path")
    p.add_argument("--signature", required=True, help="target signature CSV")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score saved maps against a mask")
    p.add_argument("--scores", nargs="+", required=True,
                   help="score map paths, optionally name=path")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="synthesize, detect with several methods, evaluate")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--cube", help="cube header path (instead of --preset)")
    p.add_argument("--signature")
    p.add_argument("--mask")
    p.add_argument("--methods", default="cem,ace,std,shr,wshr")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("HSI_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and not args.preset:
        if not (args.cube and args.signature and args.mask):
            parser.error("compare requires --preset or --cube/--signature/--mask")
    try:
        return args.func(args)
    except Exception as exc:  # pipeline failure -> diagnostic + exit 1
        log.error("%s", exc)
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
