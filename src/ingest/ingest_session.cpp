#include "ingest/ingest_session.h"

#include <utility>

#include "util/check.h"

namespace frap::ingest {

std::uint16_t TaskClassTable::add(std::vector<core::StageDemand> stages) {
  FRAP_EXPECTS(!stages.empty());
  FRAP_EXPECTS(classes_.size() < std::size_t{65536});
  classes_.push_back(std::move(stages));
  return static_cast<std::uint16_t>(classes_.size() - 1);
}

const std::vector<core::StageDemand>& TaskClassTable::stages_of(
    std::uint16_t class_id) const {
  FRAP_EXPECTS(class_id < classes_.size());
  return classes_[class_id];
}

IngestSession::IngestSession(std::size_t num_stages, TaskClassTable classes)
    : num_stages_(num_stages), classes_(std::move(classes)) {
  FRAP_EXPECTS(num_stages_ > 0);
  spec_.stages.resize(num_stages_);
  touched_.reserve(num_stages_);
  class_specs_.reserve(classes_.size());
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    const auto& stages = classes_.stages_of(static_cast<std::uint16_t>(k));
    FRAP_EXPECTS(stages.size() == num_stages_);
    core::TaskSpec s;
    s.stages = stages;
    class_specs_.push_back(std::move(s));
  }
}

WireParse IngestSession::check(const WireView& view) const {
  FRAP_EXPECTS(view.valid());
  if (view.num_stages() != num_stages_)
    return WireParse{WireError::kStageMismatch, 6};
  WireArrival a;
  for (auto cur = view.cursor(); cur.next(a);) {
    if (a.kind() == RecordKind::kClass && a.class_id() >= classes_.size())
      return WireParse{WireError::kUnknownClass, 0};
  }
  return WireParse{};
}

// frap:contract(hotpath)
const core::TaskSpec& IngestSession::assemble(const WireArrival& a) {
  if (a.kind() == RecordKind::kClass) {
    core::TaskSpec& s = class_specs_[a.class_id()];
    s.id = a.id();
    s.deadline = a.deadline();
    s.importance = a.importance();
    return s;
  }
  for (const std::uint32_t j : touched_) spec_.stages[j].compute = 0;
  touched_.clear();
  spec_.id = a.id();
  spec_.deadline = a.deadline();
  spec_.importance = a.importance();
  const std::uint16_t pairs = a.pair_count();
  for (std::uint16_t i = 0; i < pairs; ++i) {
    const std::uint32_t j = a.stage(i);
    spec_.stages[j].compute = a.demand(i);
    touched_.push_back(j);
  }
  return spec_;
}

template <class Decide>
IngestStats IngestSession::decide_each(
    const WireView& view, std::vector<core::AdmissionDecision>* decisions,
    Decide&& decide) {
  IngestStats st;
  if (const WireParse p = check(view); !p.ok()) {
    st.error = p.error;
    return st;
  }
  WireArrival a;
  for (auto cur = view.cursor(); cur.next(a);) {
    const core::AdmissionDecision d = decide(a);
    ++st.records;
    d.admitted ? ++st.admitted : ++st.rejected;
    if (decisions != nullptr) decisions->push_back(d);
  }
  return st;
}

IngestStats IngestSession::replay(
    const WireView& view, core::AdmissionController& ctl, sim::Simulator& sim,
    std::vector<core::AdmissionDecision>* decisions,
    std::optional<Time> rebase) {
  const Duration shift = rebase ? *rebase - view.base_time() : 0.0;
  return decide_each(view, decisions, [&](const WireArrival& a) {
    const Time t = rebase ? a.arrival() + shift : a.arrival();
    sim.run_until(t);
    return ctl.try_admit(assemble(a), t);
  });
}

IngestStats IngestSession::admit_burst(
    const WireView& view, core::AdmissionController& ctl,
    std::vector<core::AdmissionDecision>* decisions) {
  const Time now = ctl.now();
  return decide_each(view, decisions, [&](const WireArrival& a) {
    return ctl.try_admit(assemble(a), now);
  });
}

IngestStats IngestSession::admit(
    const WireView& view, service::ShardedAdmissionService& svc,
    std::vector<core::AdmissionDecision>* decisions,
    std::optional<Time> rebase) {
  const Duration shift = rebase ? *rebase - view.base_time() : 0.0;
  return decide_each(view, decisions, [&](const WireArrival& a) {
    const Time t = rebase ? a.arrival() + shift : a.arrival();
    return svc.try_admit(assemble(a), t);
  });
}

}  // namespace frap::ingest
