#include "serve/registry.h"

#include <algorithm>

#include "util/logging.h"

namespace patdnn {

ModelRegistry::ModelRegistry(RegistryOptions opts)
    : opts_(std::move(opts)),
      clock_(opts_.server.clock ? opts_.server.clock : systemServeClock())
{
    // Materialize the shared compute pool once: every model loaded into
    // this registry executes on copies of opts_.device, which all hold
    // this same lazily created util::ThreadPool.
    opts_.device.pool();
    opts_.server.clock = clock_;
    if (opts_.admission.max_queued_samples > 0 ||
        opts_.admission.max_queued_bytes > 0)
        admission_ = std::make_shared<AdmissionController>(opts_.admission);
}

ModelRegistry::~ModelRegistry()
{
    shutdownAll();
}

Status
ModelRegistry::load(const std::string& name, const std::string& path)
{
    Result<std::shared_ptr<CompiledModel>> model = loadModel(path, opts_.device);
    if (!model.ok())
        // Keep the loader's code + detail slug; prefix the message so
        // the caller sees which name failed to come up.
        return Status(model.code(),
                      "registry: cannot load '" + name + "': " +
                          model.status().message(),
                      model.status().detail());
    return add(name, std::move(model).value());
}

Status
ModelRegistry::add(const std::string& name,
                   std::shared_ptr<const CompiledModel> model)
{
    return add(name, std::move(model), opts_.server);
}

Status
ModelRegistry::add(const std::string& name,
                   std::shared_ptr<const CompiledModel> model,
                   const ServerOptions& server_opts)
{
    if (!model)
        return Status(ErrorCode::kInvalidArgument,
                      "registry: null model for '" + name + "'");
    auto taken = [&] {
        return Status(ErrorCode::kInvalidArgument,
                      "registry: model name '" + name + "' already loaded");
    };
    {
        // Cheap pre-check: don't spin up a whole server (workers,
        // sessions) for a name that is already taken.
        std::lock_guard<std::mutex> lk(mutex_);
        if (entries_.count(name) != 0)
            return taken();
    }
    ServerOptions opts = server_opts;
    if (!opts.clock)
        opts.clock = clock_;
    if (admission_ && !opts.admission) {
        // Every registry-fronted server charges the shared budget under
        // its registered name (the server registers name + weight).
        opts.admission = admission_;
        opts.admission_name = name;
    }
    Entry entry;
    entry.model = std::move(model);
    entry.server = std::make_shared<InferenceServer>(entry.model, opts);
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto [it, inserted] = entries_.emplace(name, std::move(entry));
        if (!inserted) {
            // Lost a race to a concurrent add of the same name: the
            // freshly built server shuts down on destruction below and
            // the existing entry is untouched.
            return taken();
        }
    }
    return Status::OK();
}

bool
ModelRegistry::evict(const std::string& name)
{
    Entry victim;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = entries_.find(name);
        if (it == entries_.end())
            return false;
        victim = std::move(it->second);
        entries_.erase(it);
    }
    // Outside the lock: shutdown drains and joins, which must not block
    // other models' routing.
    victim.server->shutdown();
    if (admission_)
        admission_->deregisterModel(name);
    return true;
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::vector<std::string> out;
    std::lock_guard<std::mutex> lk(mutex_);
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_)
        out.push_back(name);
    return out;
}

size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
}

std::shared_ptr<const CompiledModel>
ModelRegistry::model(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.model;
}

std::shared_ptr<InferenceServer>
ModelRegistry::serverFor(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.server;
}

std::future<Tensor>
ModelRegistry::submit(const std::string& name, Tensor input, SubmitOptions sopts,
                      RequestId* id)
{
    if (id != nullptr)
        *id = 0;
    // Resolve under a short lock, then submit without it: one model's
    // full queue must not block another model's producers (or evict).
    std::shared_ptr<InferenceServer> server = serverFor(name);
    if (!server) {
        std::promise<Tensor> p;
        p.set_exception(std::make_exception_ptr(ServeError(
            ErrorCode::kNotFound, "registry: no model named '" + name + "'")));
        return p.get_future();
    }
    return server->submit(std::move(input), sopts, id);
}

Result<RequestId>
ModelRegistry::trySubmit(const std::string& name, Tensor input,
                         std::future<Tensor>* result, SubmitOptions sopts)
{
    std::shared_ptr<InferenceServer> server = serverFor(name);
    if (!server)
        return Status(ErrorCode::kNotFound,
                      "registry: no model named '" + name + "'");
    return server->trySubmit(std::move(input), result, sopts);
}

bool
ModelRegistry::cancel(const std::string& name, RequestId id)
{
    std::shared_ptr<InferenceServer> server = serverFor(name);
    return server ? server->cancel(id) : false;
}

ServerStats
ModelRegistry::stats(const std::string& name) const
{
    std::shared_ptr<InferenceServer> server = serverFor(name);
    return server ? server->stats() : ServerStats{};
}

ServeClock::TimePoint
ModelRegistry::deadlineIn(double ms) const
{
    return clock_->after(ms);
}

void
ModelRegistry::drainAll()
{
    std::vector<std::shared_ptr<InferenceServer>> servers;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const auto& [name, entry] : entries_)
            servers.push_back(entry.server);
    }
    for (const auto& s : servers)
        s->drain();
}

void
ModelRegistry::shutdownAll()
{
    std::vector<std::shared_ptr<InferenceServer>> servers;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const auto& [name, entry] : entries_)
            servers.push_back(entry.server);
    }
    for (const auto& s : servers)
        s->shutdown();
}

}  // namespace patdnn
