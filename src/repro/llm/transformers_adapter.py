"""Adapter for real Hugging Face transformer models.

The paper runs ``meta-llama/Llama-2-7b-chat-hf`` through the
Transformers library and notes the software "is fully compatible with
any similar transformer-based LLM".  This adapter realizes that claim
for the reproduction: it implements the same :class:`LanguageModel`
protocol as the simulated model, so a real checkpoint can drive every
explanation algorithm unchanged.

``transformers``/``torch`` are *optional*: this environment is offline,
so the import happens lazily and failures raise a clear
:class:`~repro.errors.GenerationError` at construction time.  The
adapter is exercised in tests through a lightweight fake of the
transformers interface (no network, no weights), which pins down the
exact calls a real model would receive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..attention.model import AttentionTrace
from ..errors import GenerationError
from .base import GenerationResult, TokenUsage
from .prompts import parse_prompt


def _completion_count(answer_ids, pad_id) -> int:
    """Generated tokens excluding batch padding.

    HF right-pads generated rows that hit EOS before the batch's
    longest row, so a raw ``len()`` would inflate short answers' usage
    exactly when batching is on.
    """
    if pad_id is None:
        return int(len(answer_ids))
    try:
        return sum(1 for token in answer_ids if int(token) != pad_id)
    except (TypeError, ValueError):  # exotic tensor rows: best effort
        return int(len(answer_ids))


def _mask_sum(row) -> int:
    """Sum an attention-mask row that may be a tensor or a plain list."""
    total = getattr(row, "sum", None)
    if callable(total):
        value = total()
        item = getattr(value, "item", None)
        return int(item() if callable(item) else value)
    return int(sum(row))


class TransformersLLM:
    """Drive a causal-LM checkpoint through the RAGE prompt contract.

    Parameters
    ----------
    model_name:
        Checkpoint id, e.g. ``meta-llama/Llama-2-7b-chat-hf``.
    max_new_tokens:
        Generation cap (answers are short spans).
    device:
        Torch device string; ``None`` lets the library decide.
    max_batch_rows:
        Upper bound on rows per padded ``model.generate`` call.  A
        shared evaluation plan can hand the whole perturbation set to
        ``generate_batch`` at once (hundreds to tens of thousands of
        prompts); without a cap that is a single enormous padded tensor
        and an instant OOM.  Batches are chunked transparently.
    loader:
        Injection point for tests: a callable returning
        ``(tokenizer, model)``.  Defaults to loading through
        ``transformers.AutoTokenizer`` / ``AutoModelForCausalLM``.
    """

    def __init__(
        self,
        model_name: str = "meta-llama/Llama-2-7b-chat-hf",
        max_new_tokens: int = 32,
        device: Optional[str] = None,
        max_batch_rows: int = 32,
        loader=None,
    ) -> None:
        if max_batch_rows < 1:
            raise GenerationError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        self.model_name = model_name
        self.max_new_tokens = max_new_tokens
        self.device = device
        self.max_batch_rows = max_batch_rows
        if loader is None:
            loader = self._default_loader
        try:
            self._tokenizer, self._model = loader(model_name, device)
        except GenerationError:
            raise
        except Exception as error:  # pragma: no cover - depends on env
            raise GenerationError(
                f"could not load {model_name!r}: {error}"
            ) from error

    @staticmethod
    def _default_loader(model_name: str, device: Optional[str]):
        try:
            from transformers import AutoModelForCausalLM, AutoTokenizer
        except ImportError as error:
            raise GenerationError(
                "the transformers library is not installed; use "
                "repro.llm.SimulatedLLM or install transformers+torch"
            ) from error
        tokenizer = AutoTokenizer.from_pretrained(model_name)
        model = AutoModelForCausalLM.from_pretrained(
            model_name, output_attentions=True
        )
        if device is not None:
            model = model.to(device)
        return tokenizer, model

    @property
    def name(self) -> str:
        """Checkpoint identifier."""
        return f"transformers/{self.model_name}"

    @property
    def cache_params(self) -> dict:
        """Persistent-cache identity: generation settings that change
        the answer for the same checkpoint and prompt."""
        return {"max_new_tokens": self.max_new_tokens}

    def generate(self, prompt: str) -> GenerationResult:
        """Tokenize, generate, decode, and expose per-source attention."""
        parsed = parse_prompt(prompt)  # validates the prompt contract
        encoded = self._tokenizer(prompt, return_tensors="pt")
        if self.device is not None and hasattr(encoded, "to"):
            encoded = encoded.to(self.device)
        output = self._model.generate(
            **encoded,
            max_new_tokens=self.max_new_tokens,
            do_sample=False,  # deterministic: RAGE perturbs, it must not sample
            output_attentions=True,
            return_dict_in_generate=True,
        )
        prompt_length = encoded["input_ids"].shape[-1]
        answer_ids = output.sequences[0][prompt_length:]
        answer = self._tokenizer.decode(answer_ids, skip_special_tokens=True).strip()
        trace = self._attention_trace(parsed, prompt, output)
        return GenerationResult(
            answer=answer,
            prompt=prompt,
            attention=trace,
            usage=TokenUsage(
                prompt_tokens=int(prompt_length),
                completion_tokens=int(len(answer_ids)),
            ),
            diagnostics={"model": self.model_name},
        )

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        """True batched inference: one padded ``model.generate`` call.

        All prompts are tokenized together with left padding (decoder-
        only models generate from the rightmost position, so padding
        must sit on the left) and decoded row by row.  Per the batching
        contract in :mod:`repro.llm.base`, attention traces are omitted
        in batch mode — capturing every row's attention tensors would
        negate the batching win; use :meth:`generate` where a trace is
        required.
        """
        if not prompts:
            return []
        for prompt in prompts:
            parse_prompt(prompt)  # validate the prompt contract up front
        if len(prompts) > self.max_batch_rows:
            results: List[GenerationResult] = []
            for start in range(0, len(prompts), self.max_batch_rows):
                results.extend(
                    self.generate_batch(prompts[start : start + self.max_batch_rows])
                )
            return results
        pad_restore = getattr(self._tokenizer, "padding_side", None)
        if pad_restore is not None:
            self._tokenizer.padding_side = "left"
        if getattr(self._tokenizer, "pad_token", None) is None and hasattr(
            self._tokenizer, "eos_token"
        ):
            self._tokenizer.pad_token = self._tokenizer.eos_token
        try:
            encoded = self._tokenizer(list(prompts), return_tensors="pt", padding=True)
        except TypeError:
            # Tokenizer cannot pad a batch (minimal fakes, exotic
            # backends): keep the contract with sequential calls.
            return [self.generate(prompt) for prompt in prompts]
        finally:
            if pad_restore is not None:
                self._tokenizer.padding_side = pad_restore
        if self.device is not None and hasattr(encoded, "to"):
            encoded = encoded.to(self.device)
        output = self._model.generate(
            **encoded,
            max_new_tokens=self.max_new_tokens,
            do_sample=False,
            return_dict_in_generate=True,
        )
        prompt_length = encoded["input_ids"].shape[-1]
        attention_mask = encoded.get("attention_mask")
        results: List[GenerationResult] = []
        pad_id = getattr(self._tokenizer, "pad_token_id", None)
        for row, prompt in enumerate(prompts):
            answer_ids = output.sequences[row][prompt_length:]
            answer = self._tokenizer.decode(
                answer_ids, skip_special_tokens=True
            ).strip()
            if attention_mask is not None:
                real_tokens = int(_mask_sum(attention_mask[row]))
            else:
                real_tokens = int(prompt_length)
            results.append(
                GenerationResult(
                    answer=answer,
                    prompt=prompt,
                    attention=None,
                    usage=TokenUsage(
                        prompt_tokens=real_tokens,
                        completion_tokens=_completion_count(answer_ids, pad_id),
                    ),
                    diagnostics={"model": self.model_name, "batched": True},
                )
            )
        return results

    def _attention_trace(self, parsed, prompt: str, output) -> Optional[AttentionTrace]:
        """Fold HF attention tensors into per-source totals.

        Maps each prompt token to its source by character offsets, then
        adds the token's last-position attention over every layer and
        head to its source's total — exactly the sum the paper takes
        over layers, heads and tokens.  Template and question tokens
        belong to no source.
        """
        attentions = getattr(output, "attentions", None)
        if not attentions:
            return None
        first_step = attentions[0]  # tuple over layers, prompt-wide
        num_layers = len(first_step)
        num_heads = first_step[0].shape[1]
        offsets = self._tokenizer(
            prompt, return_offsets_mapping=True
        ).get("offset_mapping")
        if offsets is None:
            return None
        source_spans = []
        cursor = 0
        for text in parsed.source_texts:
            start = prompt.find(text, cursor)
            source_spans.append((start, start + len(text)))
            cursor = start + len(text)
        totals = [0.0] * len(source_spans)
        for token_index, (start, end) in enumerate(offsets):
            source_index = next(
                (
                    i
                    for i, (s_start, s_end) in enumerate(source_spans)
                    if start >= s_start and end <= s_end
                ),
                None,
            )
            if source_index is None:
                continue
            totals[source_index] += sum(
                sum(
                    float(first_step[layer][0, head, -1, token_index])
                    for head in range(num_heads)
                )
                for layer in range(num_layers)
            )
        return AttentionTrace(
            num_layers=num_layers, num_heads=num_heads, source_totals=totals
        )
