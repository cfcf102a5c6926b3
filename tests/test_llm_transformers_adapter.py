"""TransformersLLM adapter tests via a lightweight fake backend.

No network, no weights: the fake reproduces the slice of the
transformers generate() interface the adapter consumes, pinning the
exact calls a real checkpoint would receive.
"""

import pytest

from repro.core import Context, ContextEvaluator, search_combination_counterfactual
from repro.errors import GenerationError
from repro.llm import PromptBuilder
from repro.llm.transformers_adapter import TransformersLLM
from repro.retrieval import Document

BUILDER = PromptBuilder()


class _FakeTensor:
    """Just enough of a tensor: shape and slicing over a list."""

    def __init__(self, values):
        self.values = list(values)

    @property
    def shape(self):
        return (1, len(self.values))

    def __getitem__(self, item):
        if isinstance(item, tuple):  # sequences[0][n:]
            raise TypeError
        result = self.values[item]
        return _FakeTensor(result) if isinstance(result, list) else result

    def __len__(self):
        return len(self.values)


class _FakeEncoding(dict):
    def to(self, device):
        return self


class _FakeLayerAttention:
    """Indexable as [0, head, -1, token] with deterministic values."""

    def __init__(self, num_heads, num_tokens):
        self.shape = (1, num_heads, num_tokens, num_tokens)

    def __getitem__(self, key):
        _, head, _, token = key
        return 0.01 * (head + 1) + 0.001 * token


class _FakeOutput:
    def __init__(self, sequences, attentions):
        self.sequences = sequences
        self.attentions = attentions


class _FakeTokenizer:
    """Whitespace tokenizer with char offsets and a simple vocab."""

    def __call__(self, text, return_tensors=None, return_offsets_mapping=False):
        tokens = []
        offsets = []
        cursor = 0
        for word in text.split():
            start = text.find(word, cursor)
            offsets.append((start, start + len(word)))
            tokens.append(hash(word) % 1000)
            cursor = start + len(word)
        encoding = _FakeEncoding({"input_ids": _FakeTensor(tokens)})
        if return_offsets_mapping:
            encoding["offset_mapping"] = offsets
        return encoding

    def decode(self, ids, skip_special_tokens=True):
        return self._answer

    _answer = "Fake Answer"


class _FakeModel:
    def __init__(self, tokenizer, answer_fn=None):
        self._tokenizer = tokenizer
        self._answer_fn = answer_fn
        self.generate_kwargs = None

    def generate(self, input_ids=None, offset_mapping=None, **kwargs):
        self.generate_kwargs = kwargs
        prompt_tokens = input_ids.values
        answer_ids = [1, 2]
        num_layers, num_heads = 2, 3
        attentions = (
            tuple(
                _FakeLayerAttention(num_heads, len(prompt_tokens))
                for _ in range(num_layers)
            ),
        )
        return _FakeOutput(
            sequences=[_FakeTensor(prompt_tokens + answer_ids)],
            attentions=attentions,
        )


def _adapter(answer="Fake Answer"):
    tokenizer = _FakeTokenizer()
    tokenizer._answer = answer
    model = _FakeModel(tokenizer)
    return TransformersLLM(
        model_name="fake/model",
        loader=lambda name, device: (tokenizer, model),
    ), model


def test_missing_transformers_raises_generation_error():
    with pytest.raises(GenerationError):
        TransformersLLM(model_name="meta-llama/Llama-2-7b-chat-hf")


def test_name():
    adapter, _ = _adapter()
    assert adapter.name == "transformers/fake/model"


def test_generate_decodes_answer():
    adapter, model = _adapter(answer="Roger Federer")
    prompt = BUILDER.build("Who is the best?", ["Some source text."])
    result = adapter.generate(prompt)
    assert result.answer == "Roger Federer"
    assert result.usage.prompt_tokens == len(prompt.split())
    assert result.usage.completion_tokens == 2


def test_generation_is_greedy_and_attention_enabled():
    adapter, model = _adapter()
    adapter.generate(BUILDER.build("q?", ["text"]))
    assert model.generate_kwargs["do_sample"] is False
    assert model.generate_kwargs["output_attentions"] is True
    assert model.generate_kwargs["return_dict_in_generate"] is True


def test_attention_trace_maps_tokens_to_sources():
    adapter, _ = _adapter()
    sources = ["alpha beta", "gamma delta epsilon"]
    prompt = BUILDER.build("q?", sources)
    trace = adapter.generate(prompt).attention
    assert trace is not None
    assert trace.num_layers == 2 and trace.num_heads == 3
    words = prompt.split()
    fake = _FakeLayerAttention(num_heads=3, num_tokens=len(words))

    def attention_over(token_indices):
        """The fake's last-position attention summed over tokens,
        layers and heads."""
        return sum(
            fake[0, head, -1, token]
            for token in token_indices
            for _ in range(trace.num_layers)
            for head in range(trace.num_heads)
        )

    source_tokens = [[words.index(word) for word in text.split()] for text in sources]
    assert trace.source_totals == [
        pytest.approx(attention_over(indices)) for indices in source_tokens
    ]
    # Template and question tokens ("Sources:", "1.", "q?", ...) count
    # toward no source.
    assert sum(trace.source_totals) < attention_over(range(len(words)))


def test_adapter_drives_explanations():
    """The adapter satisfies the LanguageModel protocol end to end."""
    tokenizer = _FakeTokenizer()

    class FlippingModel(_FakeModel):
        def generate(self, input_ids=None, **kwargs):
            output = super().generate(input_ids=input_ids, **kwargs)
            # answer depends on prompt length: removing a source flips it
            # (full context is ~70 whitespace tokens; one source is 14)
            tokenizer._answer = "long" if len(input_ids.values) > 60 else "short"
            return output

    adapter = TransformersLLM(
        model_name="fake/flip",
        loader=lambda name, device: (tokenizer, FlippingModel(tokenizer)),
    )
    docs = [
        Document(doc_id=f"d{i}", text="word " * 12) for i in range(3)
    ]
    context = Context.from_documents("what is it?", docs)
    evaluator = ContextEvaluator(adapter, context)
    scores = {doc.doc_id: 1.0 for doc in docs}
    result = search_combination_counterfactual(evaluator, scores)
    assert result.found
    assert result.counterfactual.new_answer == "short"


def test_invalid_prompt_rejected():
    adapter, _ = _adapter()
    with pytest.raises(Exception):
        adapter.generate("not a RAGE prompt at all")


# -- batched inference ----------------------------------------------------


class _Fake2DTensor:
    """Batch of token rows: shape only (the adapter reads nothing else)."""

    def __init__(self, rows):
        self.rows = rows

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


class _FakeBatchTokenizer:
    """Whitespace tokenizer that supports left-padded batch encoding."""

    pad_token = None
    eos_token = "</s>"
    padding_side = "right"

    def __call__(self, text, return_tensors=None, padding=False,
                 return_offsets_mapping=False):
        if isinstance(text, list):
            assert padding, "batch encoding requires padding"
            assert self.padding_side == "left"
            token_rows = [[hash(w) % 1000 for w in t.split()] for t in text]
            width = max(len(row) for row in token_rows)
            padded = [[0] * (width - len(row)) + row for row in token_rows]
            mask = [[0] * (width - len(row)) + [1] * len(row) for row in token_rows]
            return _FakeEncoding(
                {"input_ids": _Fake2DTensor(padded), "attention_mask": mask}
            )
        tokens = [hash(w) % 1000 for w in text.split()]
        return _FakeEncoding({"input_ids": _FakeTensor(tokens)})

    def decode(self, ids, skip_special_tokens=True):
        return f"answer-{ids[0] - 100}"


class _FakeBatchModel:
    def __init__(self):
        self.batch_calls = 0
        self.batch_kwargs = None

    def generate(self, input_ids=None, attention_mask=None, **kwargs):
        self.batch_calls += 1
        self.batch_kwargs = kwargs
        return _FakeOutput(
            sequences=[
                list(row) + [100 + index]
                for index, row in enumerate(input_ids.rows)
            ],
            attentions=None,
        )


def test_generate_batch_true_batched_inference():
    tokenizer = _FakeBatchTokenizer()
    model = _FakeBatchModel()
    adapter = TransformersLLM(
        model_name="fake/batch", loader=lambda name, device: (tokenizer, model)
    )
    prompts = [
        BUILDER.build("q?", ["alpha"]),
        BUILDER.build("q?", ["beta gamma delta epsilon"]),
        BUILDER.build("q?", ["zeta eta"]),
    ]
    results = adapter.generate_batch(prompts)
    assert model.batch_calls == 1  # one padded call for the whole batch
    assert [r.answer for r in results] == ["answer-0", "answer-1", "answer-2"]
    assert [r.prompt for r in results] == prompts
    # batch mode omits attention per the contract, but keeps usage honest
    assert all(r.attention is None for r in results)
    assert [r.usage.prompt_tokens for r in results] == [
        len(p.split()) for p in prompts
    ]
    assert all(r.diagnostics.get("batched") for r in results)
    assert model.batch_kwargs["do_sample"] is False
    # the pad token was filled from eos and padding_side restored
    assert tokenizer.pad_token == "</s>"
    assert tokenizer.padding_side == "right"


def test_generate_batch_chunks_oversized_batches():
    """A plan-sized batch must split into bounded model.generate calls
    instead of one giant padded tensor."""
    tokenizer = _FakeBatchTokenizer()
    model = _FakeBatchModel()
    adapter = TransformersLLM(
        model_name="fake/batch",
        max_batch_rows=4,
        loader=lambda name, device: (tokenizer, model),
    )
    prompts = [BUILDER.build("q?", [f"text {i}"]) for i in range(10)]
    results = adapter.generate_batch(prompts)
    assert model.batch_calls == 3  # 4 + 4 + 2
    assert [r.prompt for r in results] == prompts


def test_invalid_max_batch_rows():
    with pytest.raises(GenerationError):
        TransformersLLM(
            model_name="fake/batch",
            max_batch_rows=0,
            loader=lambda name, device: (_FakeBatchTokenizer(), _FakeBatchModel()),
        )


def test_generate_batch_empty():
    tokenizer = _FakeBatchTokenizer()
    adapter = TransformersLLM(
        model_name="fake/batch",
        loader=lambda name, device: (tokenizer, _FakeBatchModel()),
    )
    assert adapter.generate_batch([]) == []


def test_generate_batch_falls_back_when_tokenizer_cannot_pad():
    """Backends with no padding support keep the alignment contract via
    sequential generation."""
    adapter, _ = _adapter(answer="Sequential Answer")
    prompts = [BUILDER.build("q?", ["one"]), BUILDER.build("q?", ["two"])]
    results = adapter.generate_batch(prompts)
    assert len(results) == 2
    assert [r.prompt for r in results] == prompts
    assert all(r.answer == "Sequential Answer" for r in results)
