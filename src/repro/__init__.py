"""repro — a full reproduction of RAGE: Retrieval-Augmented LLM
Explanations (Rorseth et al., ICDE 2024).

Quick start::

    from repro import Rage, RageConfig, SimulatedLLM
    from repro.datasets import load_use_case

    uc = load_use_case("big_three")
    rage = Rage.from_corpus(uc.corpus, SimulatedLLM(knowledge=uc.knowledge),
                            config=RageConfig(k=uc.k))
    print(rage.ask(uc.query).answer)                  # "Roger Federer"
    print(rage.combination_counterfactual(uc.query))  # minimal flip

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Each public name -> the module defining it, imported when the name is
#: first read (PEP 562): importing one part of the package, such as the
#: lint in ``repro.analysis``, loads neither the engine nor NumPy.
_EXPORTS = {
    "CombinationPerturbation": ".core.context",
    "Context": ".core.context",
    "ContextSource": ".core.context",
    "PermutationPerturbation": ".core.context",
    "SearchDirection": ".core.counterfactual",
    "AskResult": ".core.engine",
    "Rage": ".core.engine",
    "RageConfig": ".core.engine",
    "RageReport": ".core.engine",
    "RelevanceMethod": ".core.scoring",
    "RageError": ".errors",
    "KBFact": ".llm.knowledge",
    "KnowledgeBase": ".llm.knowledge",
    "RemoteLLM": ".llm.remote",
    "RouterLLM": ".llm.router",
    "SimulatedLLM": ".llm.simulated",
    "SimulatedLLMConfig": ".llm.simulated",
    "Corpus": ".retrieval.document",
    "Document": ".retrieval.document",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    """Import an export's module on first access and keep the name bound."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value
