#include "baselines/recommender.h"

namespace supa {

Status SupaRecommender::Fit(const Dataset& data, EdgeRange range) {
  model_ = std::make_unique<SupaModel>(data, model_config_);
  if (neighbor_cap_ > 0) {
    model_->graph_store().set_neighbor_cap(neighbor_cap_);
  }
  InsLearnConfig effective = train_config_;
  if (effective.auto_static_fallback && effective.single_pass &&
      data.NumDistinctTimestamps() <= 1) {
    // Static graph: the batch-sequential workflow has no temporal order to
    // exploit; train conventionally (§III-A, Table VII).
    effective.single_pass = false;
    effective.full_pass_epochs = std::max(effective.full_pass_epochs, 4);
  }
  InsLearnTrainer trainer(effective);
  SUPA_ASSIGN_OR_RETURN(last_report_, trainer.Train(*model_, data, range));
  snapshot_ = model_->AcquireSnapshot();
  return Status::OK();
}

Status SupaRecommender::FitIncremental(const Dataset& data, EdgeRange range) {
  if (model_ == nullptr) return Fit(data, range);
  InsLearnTrainer trainer(train_config_);
  SUPA_ASSIGN_OR_RETURN(last_report_, trainer.Train(*model_, data, range));
  snapshot_ = model_->AcquireSnapshot();
  return Status::OK();
}

double SupaRecommender::Score(NodeId u, NodeId v, EdgeTypeId r) const {
  if (model_ == nullptr) return 0.0;
  return model_->ScoreOn(*snapshot_, u, v, r);
}

Result<std::vector<float>> SupaRecommender::Embedding(NodeId v,
                                                      EdgeTypeId r) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("SUPA not fitted yet");
  }
  std::vector<float> out(static_cast<size_t>(model_->config().dim));
  model_->FinalEmbeddingOn(*snapshot_, v, r, out.data());
  return out;
}

}  // namespace supa
