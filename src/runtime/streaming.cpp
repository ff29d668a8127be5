#include "runtime/streaming.h"

namespace deepsecure::runtime {

StreamingGarbler::StreamingGarbler(Channel& transport, Block seed,
                                   const StreamConfig& /*cfg*/)
    : ch_(transport),
      session_(std::make_unique<GarblerSession>(ch_, seed,
                                                served_gc_options())) {}

BitVec StreamingGarbler::run_chain(const std::vector<Circuit>& chain,
                                   const BitVec& data_bits) {
  const BitVec out = session_->run_chain(chain, data_bits);
  ch_.flush();
  return out;
}

StreamingEvaluator::StreamingEvaluator(Channel& transport,
                                       const StreamConfig& /*cfg*/)
    : ch_(transport),
      session_(std::make_unique<EvaluatorSession>(ch_, served_gc_options())) {}

BitVec StreamingEvaluator::run_chain(const std::vector<Circuit>& chain,
                                     const BitVec& weight_bits) {
  const BitVec out = session_->run_chain(chain, weight_bits);
  ch_.flush();
  return out;
}

}  // namespace deepsecure::runtime
