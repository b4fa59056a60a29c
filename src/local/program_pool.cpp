#include "local/program_pool.hpp"

#include <stdexcept>

namespace dmm::local {

NodeProgram* ProgramPool::adopt(std::unique_ptr<NodeProgram> program) {
  NodeProgram* raw = program.get();
  adopted_.push_back(std::move(program));
  items_.push_back(raw);
  return raw;
}

void ProgramPool::clear() {
  for (auto it = pooled_.rbegin(); it != pooled_.rend(); ++it) {
    (*it)->~NodeProgram();
  }
  pooled_.clear();
  adopted_.clear();
  items_.clear();
  arena_.reset();
}

void ProgramFactory::make_programs(std::size_t count, ProgramPool& pool) const {
  for (std::size_t i = 0; i < count; ++i) make_one(pool);
}

namespace {

/// A NodeProgramFactory as a ProgramFactory: each program is built on the
/// heap and adopted by the pool.
class AdoptingFactory final : public ProgramFactory {
 public:
  explicit AdoptingFactory(NodeProgramFactory make) : make_(std::move(make)) {}
  NodeProgram* make_one(ProgramPool& pool) const override { return pool.adopt(make_()); }

 private:
  NodeProgramFactory make_;
};

}  // namespace

std::shared_ptr<const ProgramFactory> ProgramSource::adopting(NodeProgramFactory make) {
  if (!make) return nullptr;
  return std::make_shared<AdoptingFactory>(std::move(make));
}

void ProgramSource::build(std::size_t count, ProgramPool& pool) const {
  if (!factory_) throw std::logic_error("ProgramSource: empty source (no factory)");
  const std::size_t before = pool.size();
  factory_->make_programs(count, pool);
  if (pool.size() - before < count) {
    throw std::logic_error("ProgramSource: factory constructed too few programs");
  }
}

}  // namespace dmm::local
