#include "graph/term_scorer.h"

#include <cmath>

#include "text/terms.h"

namespace ustl {

void CorpusFrequency::Add(std::string_view s) {
  for (Token& token : ClassTokens(s)) {
    auto it = freq_.find(token.text);
    if (it == freq_.end()) {
      tokens_.push_back(std::move(token.text));
      it = freq_.emplace(tokens_.back(), 0).first;
    }
    ++it->second;
  }
}

int64_t CorpusFrequency::Get(std::string_view token) const {
  auto it = freq_.find(token);
  return it == freq_.end() ? 0 : it->second;
}

double FrequencyTermScorer::Score(std::string_view token) const {
  int64_t struc = struc_.Get(token);
  if (struc == 0) return 0.0;
  int64_t global = global_ != nullptr ? global_->Get(token) : struc;
  if (global < struc) global = struc;  // guard against inconsistent feeding
  return static_cast<double>(struc) / std::sqrt(static_cast<double>(global));
}

}  // namespace ustl
