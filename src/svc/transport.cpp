#include "svc/transport.h"

#include <future>

namespace dcert::svc {

Status LoopbackTransport::Start(FrameHandler handler) {
  std::lock_guard<std::mutex> lk(core_->mu);
  if (core_->running) return Status::Error("loopback: already started");
  core_->handler = std::move(handler);
  core_->running = true;
  return Status::Ok();
}

void LoopbackTransport::Stop() {
  std::lock_guard<std::mutex> lk(core_->mu);
  core_->running = false;
  core_->handler = nullptr;
}

std::unique_ptr<ClientTransport> LoopbackTransport::Connect() {
  class Conn final : public ClientTransport {
   public:
    explicit Conn(std::shared_ptr<Core> core) : core_(std::move(core)) {}

    using ClientTransport::Call;
    Result<Bytes> Call(ByteView request,
                       std::chrono::milliseconds deadline) override {
      FrameHandler handler;
      {
        std::lock_guard<std::mutex> lk(core_->mu);
        if (!core_->running) {
          return Result<Bytes>(ConnectionError("loopback: transport stopped"));
        }
        handler = core_->handler;  // copy so Stop can't race the invocation
      }
      auto promise = std::make_shared<std::promise<Bytes>>();
      std::future<Bytes> future = promise->get_future();
      handler(Bytes(request.begin(), request.end()),
              [promise](Bytes reply) { promise->set_value(std::move(reply)); });
      // Backstop for a handler that never responds (see the class comment).
      if (future.wait_for(deadline) != std::future_status::ready) {
        return Result<Bytes>(TimeoutError("loopback: no reply within deadline"));
      }
      return future.get();
    }

   private:
    std::shared_ptr<Core> core_;
  };
  return std::make_unique<Conn>(core_);
}

}  // namespace dcert::svc
