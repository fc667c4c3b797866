"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 upstream error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import report as reporting
from .embeddings import (Vocabulary, clean_label, clean_labels, load_model, resolve_label,
                         wanted_tokens)
from .errors import DataError, UpstreamError
from .harness import (
    ApiClientSpec,
    ImageRef,
    RunConfig,
    fetch_predictions,
    run_evaluation,
)
from .labelset import metadata_stats, read_predictions, record_lines, write_predictions
from .semantic import DEFAULT_THRESHOLD
from .sentence import ENDPOINT_ENV_VAR, ProviderConfig
from .wmd import wmd_pair


@click.group()
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
    if provider is None:
        return None
    import os

    endpoint_override = (env or os.environ).get(ENDPOINT_ENV_VAR)
    if provider.startswith(("http://", "https://")) or endpoint_override:
        return ProviderConfig(mode="remote",
                              endpoint=endpoint_override or provider,
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
              type=click.Choice(["csv", "json_lines", "html"]), default=None)
@click.option("--sentence-provider", default=None,
              help="Precomputed vector file or http(s) endpoint.")
@click.option("--sentence-model", default=None)
def evaluate(**flags):
    """Score predictions against ground truth and emit the ranked report."""
    try:
        config = _run_config(**flags)
    except KeyError as exc:
        raise click.ClickException(f"config lacks required key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise click.ClickException(f"invalid run settings: {exc}") from None
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
        spec = ApiClientSpec.from_json(
            json.loads(Path(spec_path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise click.ClickException(f"spec lacks required key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise click.ClickException(f"invalid client spec: {exc}") from None
    records = fetch_predictions(spec, _image_refs(images_path), cache_dir)
    write_predictions(records, out_path)
    click.echo(f"wrote {len(records)} records to {out_path}")


def _image_refs(images_path: str) -> list[ImageRef]:
    """The {image_id, path} lines of an images file; a bad line is a DataError."""
    refs = []
    for line_no, line in record_lines(images_path):
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{images_path} line {line_no}: invalid JSON: "
                            f"{getattr(exc, 'msg', exc)}") from None
        if not (isinstance(payload, dict) and isinstance(payload.get("image_id"), str)
                and isinstance(payload.get("path"), str)):
            raise DataError(f"{images_path} line {line_no}: "
                            "expected an object with string image_id and path")
        refs.append(ImageRef(image_id=payload["image_id"], path=payload["path"]))
    return refs


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
    store = load_model(model_path)
    click.echo(f"vocab_size={store.vocab_size} dim={store.dim}")
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
    by_api: dict[str, list] = {}
    for path in predictions:
        for record in read_predictions(path):
            by_api.setdefault(record.api_id, []).append(record)
    store = load_model(embeddings, wanted=wanted_tokens(
        clean_label(label) for records in by_api.values() for record in records
        for obj in record.objects for label in obj.synonyms))
    rows = []
    for api_id in sorted(by_api):
        unknown_rate, labels_per_object = metadata_stats(by_api[api_id], store, k)
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
        exc.show()
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
