"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 upstream error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from itertools import chain
from pathlib import Path

import click

from . import report as reporting
from .embeddings import (
    Vocabulary,
    clean_labels,
    load_model,
    model_header,
    resolve_label,
    wanted_tokens,
)
from .errors import DataError, DuplicateImageError, ParseError, UpstreamError
from .harness import (
    ApiClientSpec,
    ImageRef,
    RunConfig,
    fetch_predictions,
    run_evaluation,
)
from .labelset import (_parse_json, _raw_labels, _require, _require_id, metadata_stats,
                       read_lines, read_predictions, write_predictions)
from .semantic import DEFAULT_THRESHOLD
from .sentence import ENDPOINT_ENV_VAR, ProviderConfig
from .wmd import wmd_pair


@click.group(no_args_is_help=False)  # no command: a one-line usage error
def cli():
    """Multi-label prediction scoring with semantic metrics."""


def _parse_top_ks(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise click.UsageError(f"--top-k expects comma-separated integers, got {text!r}")
    if not values:
        raise click.UsageError("--top-k must name at least one level")
    return values


def _provider_from_flags(provider: str | None, model: str | None,
                         env: dict | None = None) -> ProviderConfig | None:
    """The --sentence-provider: an http(s) endpoint, which ``ENDPOINT_ENV_VAR``
    replaces when set, or a precomputed vector file, which it leaves alone."""
    if provider is None:
        if model is not None:
            raise click.UsageError("--sentence-model requires --sentence-provider")
        return None
    if provider.startswith(("http://", "https://")):
        endpoint = (os.environ if env is None else env).get(ENDPOINT_ENV_VAR)
        return ProviderConfig(mode="remote", endpoint=endpoint or provider,
                              model=model or "default")
    return ProviderConfig(mode="file", path=provider, model=model or "default")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="RunConfig JSON document; flags below override it.")
@click.option("--ground-truth", type=click.Path(exists=True))
@click.option("--predictions", multiple=True, type=click.Path(exists=True))
@click.option("--embeddings", type=click.Path(exists=True))
@click.option("--top-k", "top_k_text", default=None,
              help="Comma-separated levels, e.g. 1,3,5.")
@click.option("--threshold", type=float, default=None,
              help=f"Semantic similarity threshold (default {DEFAULT_THRESHOLD}).")
@click.option("--workers", type=int, default=None,
              help="Accepted for compatibility; has no effect.")
@click.option("--out", "out_path", default=None)
@click.option("--format", "out_format",
              type=click.Choice(reporting.REPORT_FORMATS), default=None)
@click.option("--sentence-provider", default=None,
              help="Precomputed vector file or http(s) endpoint.")
@click.option("--sentence-model", default=None)
def evaluate(**flags):
    """Score predictions against ground truth and emit the ranked report."""
    try:
        config = _run_config(**flags)
    except KeyError as exc:
        raise click.ClickException(f"config lacks required key {exc}") from None
    except (ValueError, TypeError, ParseError) as exc:
        raise click.ClickException(f"invalid run settings: {exc}") from None
    directory = Path(config.output_path).parent
    if not directory.is_dir():  # before scoring, so a bad --out costs no run
        raise FileNotFoundError(f"no such output directory: {directory}")
    result = run_evaluation(config)
    reporting.rank_and_colorize(result)
    paths = reporting.emit(result, config.output_path, config.output_format)
    for path in paths:
        click.echo(f"wrote {path}")


def _run_config(config_path, ground_truth, predictions, embeddings, top_k_text,
                threshold, workers, out_path, out_format, sentence_provider,
                sentence_model) -> RunConfig:
    """The run's settings: the config file, if any, overridden by the flags."""
    if config_path:
        config = RunConfig.from_file(config_path)
    else:
        if not (ground_truth and predictions and embeddings):
            raise click.UsageError(
                "either --config or all of --ground-truth/--predictions/"
                "--embeddings are required")
        config = RunConfig(ground_truth_path=ground_truth,
                           prediction_paths=tuple(predictions),
                           embeddings_path=embeddings)
    overrides = {
        "ground_truth_path": ground_truth,
        "prediction_paths": tuple(predictions) or None,
        "prediction_names": tuple(predictions) or None,
        "embeddings_path": embeddings,
        "top_ks": None if top_k_text is None else _parse_top_ks(top_k_text),
        "threshold": threshold,
        "workers": workers,
        "output_path": out_path,
        "output_format": out_format,
        "sentence": _provider_from_flags(sentence_provider, sentence_model),
    }
    return dataclasses.replace(
        config, **{key: value for key, value in overrides.items() if value is not None})


@cli.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True,
              help="ApiClientSpec JSON document.")
@click.option("--images", "images_path", type=click.Path(exists=True), required=True,
              help="JSON lines of {image_id, path}.")
@click.option("--cache-dir", type=click.Path(), required=True)
@click.option("--out", "out_path", required=True)
def fetch(spec_path, images_path, cache_dir, out_path):
    """Fetch predictions through the rate-limited, cached client."""
    try:
        spec = ApiClientSpec.from_json(_parse_json(Path(spec_path).read_bytes()))
    except KeyError as exc:
        raise click.ClickException(f"spec lacks required key {exc}") from None
    except (ValueError, TypeError, ParseError) as exc:
        raise click.ClickException(f"invalid client spec: {exc}") from None
    records = fetch_predictions(spec, _read_images(images_path), cache_dir)
    write_predictions(records, out_path)
    click.echo(f"wrote {len(records)} records to {out_path}")


def _read_images(path: str) -> list[ImageRef]:
    """The {image_id, path} lines of an images file, all read before any
    request is made; a repeated image_id is a DuplicateImageError at its line."""
    seen: set[str] = set()

    def parse(line: str) -> ImageRef:
        payload = _parse_json(line)
        _require(isinstance(payload, dict) and isinstance(payload.get("image_id"), str)
                 and isinstance(payload.get("path"), str),
                 "expected an object with string image_id and path")
        image_id = _require_id(payload["image_id"], "image_id")
        if image_id in seen:
            raise DuplicateImageError(image_id)
        seen.add(image_id)
        return ImageRef(image_id=image_id, path=payload["path"])

    return read_lines(path, parse)


@cli.command("wmd")
@click.argument("truth_labels")
@click.argument("predicted_labels")
@click.option("--embeddings", type=click.Path(exists=True), required=True)
def wmd_command(truth_labels, predicted_labels, embeddings):
    """Distance between two comma-separated label lists."""
    truth = [part for part in truth_labels.split(",") if part.strip()]
    predicted = [part for part in predicted_labels.split(",") if part.strip()]
    if not truth or not predicted:
        raise click.UsageError("both label lists must be non-empty")
    cleaned = clean_labels(truth + predicted)
    vocab = Vocabulary(load_model(embeddings, wanted=wanted_tokens(cleaned.values())),
                       cleaned)
    value = wmd_pair([vocab.row(raw) for raw in truth],
                     [vocab.row(raw) for raw in predicted], vocab)
    click.echo(f"{value:.6f}")


@cli.command("inspect-embeddings")
@click.argument("model_path", type=click.Path(exists=True))
@click.option("--token", "tokens", multiple=True,
              help="Sample labels to resolve against the store.")
def inspect_embeddings(model_path, tokens):
    """Show store shape and how sample labels resolve."""
    store = load_model(model_path, wanted=wanted_tokens(clean_labels(tokens).values()))
    vocab_size, dim = model_header(model_path)
    click.echo(f"vocab_size={vocab_size} dim={dim}")
    for raw in tokens:
        resolution = resolve_label(store, raw)
        if resolution.is_resolved:
            click.echo(f"{raw!r} -> {resolution.token!r} "
                       f"({resolution.permutation.value})")
        else:
            click.echo(f"{raw!r} -> unknown")


@cli.command()
@click.option("--predictions", multiple=True, type=click.Path(exists=True),
              required=True)
@click.option("--embeddings", type=click.Path(exists=True), required=True)
@click.option("-k", "k", type=int, default=5, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
def stats(predictions, embeddings, k, as_json):
    """Per-API unknown-object rate and mean labels per object."""
    if k < 1:
        raise click.ClickException(f"-k must be >= 1, got {k}")
    by_api: dict[str, list] = {}
    first_file: dict[tuple[str, str], str] = {}
    for path in predictions:
        for record in read_predictions(path, first_file, k):
            by_api.setdefault(record.api_id, []).append(record)
    cleaned = clean_labels(_raw_labels(chain(*by_api.values())))
    vocab = Vocabulary(load_model(embeddings, wanted=wanted_tokens(cleaned.values())),
                       cleaned)
    rows = []
    for api_id in sorted(by_api):
        unknown_rate, labels_per_object = metadata_stats(by_api[api_id], vocab)
        rows.append({"api_id": api_id,
                     "unknown_object_rate": unknown_rate,
                     "mean_labels_per_object": labels_per_object})
    if as_json:
        for row in rows:
            click.echo(json.dumps(row))
        return
    click.echo(f"{'api_id':30} {'unknown_objects_%':>18} {'labels_per_object':>18}")
    for row in rows:
        click.echo(f"{row['api_id']:30} {row['unknown_object_rate'] * 100:>18.1f} "
                   f"{row['mean_labels_per_object']:>18.2f}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        # a usage error too prints one line, without click's usage banner
        click.echo(f"Error: {exc.format_message()}", err=True)
        return 1
    except UpstreamError as exc:
        click.echo(f"upstream error: {exc}", err=True)
        return 3
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
