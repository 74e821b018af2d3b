"""Error correction for LLM-generated SQL through a diagnose/prescribe/treat
prompt loop, backed by a retrieval knowledge base of labeled correction cases."""

from . import cases, embedding, kb, llm, metrics, pipeline, runner, spider
