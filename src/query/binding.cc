#include "query/binding.h"

namespace youtopia {

bool MatchAtom(const Atom& atom, const TupleData& data, Binding* binding) {
  if (atom.terms.size() != data.size()) return false;
  for (size_t i = 0; i < data.size(); ++i) {
    const Term& t = atom.terms[i];
    if (t.is_constant()) {
      if (t.constant() != data[i]) return false;
    } else {
      if (!binding->Unify(t.var(), data[i])) return false;
    }
  }
  return true;
}

TupleData InstantiateAtom(const Atom& atom, const Binding& binding) {
  TupleData out;
  out.reserve(atom.terms.size());
  for (const Term& t : atom.terms) out.push_back(TermValue(t, binding));
  return out;
}

}  // namespace youtopia
