/**
 * @file
 * The request-side port abstraction used by the traversal and
 * reclamation units.
 *
 * A unit sends requests through a MemPort without knowing whether the
 * port leads directly to the system interconnect (the partitioned
 * design of Fig 18b) or into a shared cache (the initial design of
 * Fig 18a). Responses come back through the MemResponder the port is
 * bound to.
 */

#ifndef HWGC_MEM_PORT_H
#define HWGC_MEM_PORT_H

#include "mem/interconnect.h"
#include "mem/request.h"

namespace hwgc::mem
{

/** A place to send timed memory requests to. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** True if one more request can be sent this cycle. */
    virtual bool canSend() const = 0;

    /** Sends a request; caller must have checked canSend. */
    virtual void send(MemRequest req, Tick now) = 0;

    /**
     * Binds the port's far side to its unit: @p responder receives
     * the responses, and @p owner (nullptr for none) — the component
     * whose nextWakeup() polls canSend() — is poked when the port
     * frees a slot, the only event that raises canSend().
     */
    virtual void bind(MemResponder *responder, const Clocked *owner) = 0;
};

/** A port wired directly to an Interconnect client slot. */
class BusPort : public MemPort
{
  public:
    /**
     * @param bus The interconnect to attach to.
     * @param responder Receiver of responses (nullptr to discard).
     * @param label Per-client statistics label on the bus.
     */
    BusPort(Interconnect &bus, MemResponder *responder, std::string label)
        : bus_(bus), client_(bus.registerClient(responder,
                                                std::move(label)))
    {
    }

    bool
    canSend() const override
    {
        return bus_.canAccept(client_);
    }

    void
    send(MemRequest req, Tick now) override
    {
        req.client = client_;
        bus_.sendRequest(req, now);
    }

    void
    bind(MemResponder *responder, const Clocked *owner) override
    {
        bus_.setClientResponder(client_, responder);
        bus_.setClientOwner(client_, owner);
    }

    /** The interconnect client id (for per-client stats lookups). */
    unsigned clientId() const { return client_; }

  private:
    Interconnect &bus_;
    unsigned client_;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_PORT_H
