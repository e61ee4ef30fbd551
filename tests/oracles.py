"""Naive recounts used as an independent oracle.

Everything here is written as plain nested loops over token lists, with no
shared code or data structures from the package under test.  Slow on
purpose; only ever applied to tiny corpora.
"""

import math


def distinct_forms(tokens):
    """First-occurrence-ordered distinct forms of (form, function) pairs."""
    forms = []
    for form, _ in tokens:
        if form not in forms:
            forms.append(form)
    return forms


def count_form(tokens, form, n_functions):
    """Per-function occurrence counts of one form."""
    counts = [0] * n_functions
    for other, function in tokens:
        if other == form:
            counts[function] += 1
    return counts


def spectrum_counts(tokens, n_functions):
    """Mapping form -> per-function counts, recounted per form."""
    return {
        form: count_form(tokens, form, n_functions)
        for form in distinct_forms(tokens)
    }


def hapax_forms(tokens, n_functions):
    """Forms whose total count is exactly one."""
    result = []
    for form in distinct_forms(tokens):
        if sum(count_form(tokens, form, n_functions)) == 1:
            result.append(form)
    return result


def function_totals(tokens, n_functions):
    totals = [0] * n_functions
    for _, function in tokens:
        totals[function] += 1
    return totals


def hapax_totals(tokens, n_functions):
    totals = [0] * n_functions
    for form in hapax_forms(tokens, n_functions):
        counts = count_form(tokens, form, n_functions)
        for i in range(n_functions):
            totals[i] += counts[i]
    return totals


def proportions(totals):
    n = sum(totals)
    return [t / n for t in totals]


def class_proportion_rows(tokens, n_functions, reference):
    """(frequency, n_types, proportion) rows, ascending by frequency.

    proportion is the reference-function share of all tokens belonging to
    types of that frequency.
    """
    frequencies = []
    for form in distinct_forms(tokens):
        total = sum(count_form(tokens, form, n_functions))
        if total not in frequencies:
            frequencies.append(total)
    rows = []
    for freq in sorted(frequencies):
        n_types = 0
        ref_tokens = 0
        for form in distinct_forms(tokens):
            counts = count_form(tokens, form, n_functions)
            if sum(counts) == freq:
                n_types += 1
                ref_tokens += counts[reference]
        rows.append((freq, n_types, ref_tokens / (freq * n_types)))
    return rows


def round_half_up(x):
    return math.floor(x + 0.5)


def fold_bookkeeping(tokens, assignments, fold, n_functions):
    """Recount one cross-validation fold from scratch.

    Returns a dict with train/hapax/unseen totals, both estimates, and the
    real and rounded expected counts, or None when the training portion has
    no hapaxes (the package treats that as an error).
    """
    train = []
    held_out = []
    for token, assigned in zip(tokens, assignments):
        if assigned == fold:
            held_out.append(token)
        else:
            train.append(token)
    train_totals = function_totals(train, n_functions)
    train_hapax = hapax_totals(train, n_functions)
    if sum(train_hapax) == 0:
        return None
    omle = proportions(train_totals)
    hmle = proportions(train_hapax)
    seen = distinct_forms(train)
    unseen = [0] * n_functions
    for form, function in held_out:
        if form not in seen:
            unseen[function] += 1
    n0 = sum(unseen)
    expected_o = [p * n0 for p in omle]
    expected_h = [p * n0 for p in hmle]
    return {
        "train_totals": train_totals,
        "hapax_totals": train_hapax,
        "omle": omle,
        "hmle": hmle,
        "unseen": unseen,
        "expected_o": expected_o,
        "expected_h": expected_h,
        "rounded_o": [round_half_up(x) for x in expected_o],
        "rounded_h": [round_half_up(x) for x in expected_h],
    }


def load_lines(text, spec, fold_case):
    """Parse the decoded text of a form<TAB>tag file line by line.

    Returns a dict with the distinct kept forms in first-occurrence order,
    each kept token's form id and function index, and the dropped count; or
    a dict with the number and message of the first malformed line.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    forms = []
    form_ids = []
    functions = []
    dropped = 0
    for no, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "" or line.strip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            return {"line": no, "error": f"expected 'form<TAB>tag', got {len(fields)} fields"}
        form = fields[0].strip()
        tag = fields[1].strip()
        if form == "":
            return {"line": no, "error": "empty form"}
        if fold_case:
            form = form.lower()
        if tag not in spec.tag_map or not form.endswith(spec.suffix):
            dropped += 1
            continue
        if form not in forms:
            forms.append(form)
        form_ids.append(forms.index(form))
        functions.append(spec.functions.index(spec.tag_map[tag]))
    return {"forms": forms, "form_ids": form_ids, "functions": functions, "dropped": dropped}
