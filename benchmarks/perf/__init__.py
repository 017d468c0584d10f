"""The repository's wall-clock benchmark (see ``README.md`` beside this file)."""
