/**
 * @file
 * The `opt` / objective seam, reached from outside the library: a
 * delegating IterativeOptimizer that wraps every stepBatch in an
 * "opt.step" span and every BatchObjective call it forwards (the call
 * into ClusterObjective::evaluateBatch and the SimBackend) in a
 * "sim.objective" span carrying the probe count. Passed as the
 * optimizer prototype to TreeController and runBaseline; cloneConfig
 * returns another decorator, so every cluster and every baseline task
 * is covered. The decorator only observes: the inner optimizer sees
 * the same calls, so iterates and shot counts are unchanged.
 */

#ifndef TREEVQA_PERFBENCH_SPAN_OPTIMIZER_H
#define TREEVQA_PERFBENCH_SPAN_OPTIMIZER_H

#include <memory>
#include <utility>

#include "opt/optimizer.h"
#include "spans.h"

namespace perfbench {

class SpanOptimizer : public treevqa::IterativeOptimizer
{
  public:
    explicit SpanOptimizer(std::unique_ptr<treevqa::IterativeOptimizer> inner)
        : inner_(std::move(inner))
    {
    }

    void reset(const std::vector<double> &x0) override { inner_->reset(x0); }

    double stepBatch(const treevqa::BatchObjective &objective) override
    {
        const ScopedSpan step("opt.step");
        const treevqa::BatchObjective timed =
            [&objective](const std::vector<std::vector<double>> &probes) {
                const ScopedSpan call(
                    "sim.objective",
                    static_cast<std::int64_t>(probes.size()));
                return objective(probes);
            };
        return inner_->stepBatch(timed);
    }

    const std::vector<double> &params() const override
    {
        return inner_->params();
    }
    int lastStepEvals() const override { return inner_->lastStepEvals(); }
    int evalsPerIteration() const override
    {
        return inner_->evalsPerIteration();
    }
    int maxEvalsPerStep() const override { return inner_->maxEvalsPerStep(); }
    int iteration() const override { return inner_->iteration(); }
    std::string name() const override { return inner_->name(); }

    std::unique_ptr<treevqa::IterativeOptimizer> cloneConfig() const override
    {
        return std::make_unique<SpanOptimizer>(inner_->cloneConfig());
    }

    treevqa::JsonValue saveState() const override
    {
        return inner_->saveState();
    }
    void loadState(const treevqa::JsonValue &state) override
    {
        inner_->loadState(state);
    }

  private:
    std::unique_ptr<treevqa::IterativeOptimizer> inner_;
};

} // namespace perfbench

#endif // TREEVQA_PERFBENCH_SPAN_OPTIMIZER_H
