#include "accel/replay_window.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace pulse::accel {

void
ReplayWindow::evict_for(ClientId client)
{
    auto& order = order_[client];
    while (order.size() >= capacity_) {
        // FIFO like the real dedup SRAM: oldest visit leaves first. An
        // entry evicted while a duplicate is still in flight merely
        // loses suppression for that duplicate — correctness degrades
        // to at-least-once only when the window is sized far below the
        // client's in-flight budget.
        entries_.erase(order.front());
        order.pop_front();
    }
}

void
ReplayWindow::mark_in_progress(const Key& key)
{
    const auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
        return;
    }
    evict_for(key.id.client);
    order_[key.id.client].push_back(key);
}

void
ReplayWindow::unmark(const Key& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) {
        return;
    }
    entries_.erase(it);
    auto& order = order_[key.id.client];
    for (auto order_it = order.begin(); order_it != order.end();
         ++order_it) {
        if (*order_it == key) {
            order.erase(order_it);
            break;
        }
    }
}

void
ReplayWindow::forget(const Key& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        return;
    }
    entries_.erase(it);
    auto& order = order_[key.id.client];
    for (auto order_it = order.begin(); order_it != order.end();
         ++order_it) {
        if (*order_it == key) {
            order.erase(order_it);
            break;
        }
    }
}

void
ReplayWindow::record_response(const Key& key,
                              net::TraversalPacket response)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        // The entry was evicted mid-execution; nothing to record.
        return;
    }
    it->second.done = true;
    it->second.response = std::move(response);
}

std::size_t
ReplayWindow::absorb_from(ReplayWindow& donor)
{
    // Deterministic absorption order: unordered_map iteration varies
    // between runs, so walk clients ascending and each client's FIFO.
    std::vector<ClientId> clients;
    clients.reserve(donor.order_.size());
    for (const auto& [client, order] : donor.order_) {
        if (!order.empty()) {
            clients.push_back(client);
        }
    }
    std::sort(clients.begin(), clients.end());
    std::size_t copied = 0;
    for (const ClientId client : clients) {
        for (const Key& key : donor.order_.at(client)) {
            const auto donor_it = donor.entries_.find(key);
            if (donor_it == donor.entries_.end()) {
                continue;
            }
            const auto [it, inserted] =
                entries_.try_emplace(key, donor_it->second);
            if (!inserted) {
                continue;  // already here from an earlier handoff
            }
            evict_for(key.id.client);
            order_[key.id.client].push_back(key);
            copied++;
            if (!donor_it->second.done) {
                // Still executing at the donor: remember to mirror the
                // eventual response (or admission drop) to the windows
                // holding the absorbed copy, so a later retransmit is
                // replayed there instead of suppressed forever.
                donor.handed_off_.insert(key);
            }
        }
    }
    return copied;
}

void
ReplayWindow::import_completion(const Key& key,
                                const net::TraversalPacket& response)
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) {
        return;  // not absorbed here, or already completed
    }
    it->second.done = true;
    it->second.response = response;
}

const net::TraversalPacket*
ReplayWindow::cached_response(const Key& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.done) {
        return nullptr;
    }
    return &it->second.response;
}

}  // namespace pulse::accel
