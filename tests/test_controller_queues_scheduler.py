"""Tests for the request queue and the scheduling policies."""

import pytest

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestType, read_request
from repro.controller.scheduler import (
    FcfsScheduler,
    FrFcfsCapScheduler,
    FrFcfsScheduler,
    make_scheduler,
)
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel


class TestRequestQueue:
    def test_push_and_capacity(self):
        queue = RequestQueue(capacity=2)
        assert queue.push(read_request(0))
        assert queue.push(read_request(64))
        assert queue.is_full
        assert not queue.push(read_request(128))
        assert queue.rejected_total == 1
        assert queue.peak_occupancy == 2

    def test_oldest_preserves_arrival_order(self):
        queue = RequestQueue()
        first = read_request(0, arrival_cycle=1)
        second = read_request(64, arrival_cycle=2)
        queue.push(first)
        queue.push(second)
        assert queue.oldest() is first

    def test_remove(self):
        queue = RequestQueue()
        req = read_request(0)
        queue.push(req)
        queue.remove(req)
        assert len(queue) == 0

    def test_thread_queries(self):
        queue = RequestQueue()
        queue.push(read_request(0, thread_id=1))
        queue.push(read_request(64, thread_id=2))
        queue.push(read_request(128, thread_id=1))
        assert queue.count_for_thread(1) == 2
        assert set(queue.threads_present()) == {1, 2}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)

    def test_for_bank_filters_by_coordinate(self):
        cfg = DeviceConfig.tiny()
        mapper = AddressMapper(cfg, MappingScheme.MOP)
        queue = RequestQueue()
        req = read_request(0)
        req.coordinate = mapper.map(0)
        queue.push(req)
        assert queue.for_bank(req.coordinate.bank_key) == [req]
        assert queue.for_bank(("x",)) == []


def _decorated_requests(channel, mapper, specs):
    """specs: list of (address, arrival) -> requests with coordinates."""

    requests = []
    for address, arrival in specs:
        req = MemoryRequest(address=address, kind=RequestType.READ,
                            arrival_cycle=arrival)
        req.coordinate = mapper.map(address)
        requests.append(req)
    return requests


def _queued(requests):
    queue = RequestQueue()
    for request in requests:
        assert queue.push(request)
    return queue


def _serve_hit(channel, scheduler, queue, decision, cycle):
    """Serve a row-hit decision the way the controller does."""

    coord = decision.request.coordinate
    channel.issue(Command(CommandType.RD, rank=coord.rank,
                          bank_group=coord.bank_group, bank=coord.bank,
                          row=coord.row, column=coord.column), cycle)
    scheduler.note_command(CommandType.RD, coord.rank, coord.bank_group,
                           coord.bank)
    queue.remove(decision.request)
    scheduler.notify_served(decision)


@pytest.fixture()
def channel_and_mapper():
    cfg = DeviceConfig.tiny()
    return Channel(cfg), AddressMapper(cfg, MappingScheme.ROW_INTERLEAVED)


class TestSchedulers:
    def test_factory(self):
        assert isinstance(make_scheduler("frfcfs_cap"), FrFcfsCapScheduler)
        assert isinstance(make_scheduler("FR-FCFS"), FrFcfsScheduler)
        assert isinstance(make_scheduler("fcfs"), FcfsScheduler)
        with pytest.raises(ValueError):
            make_scheduler("nonsense")

    def test_fcfs_orders_by_age(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        reqs = _decorated_requests(channel, mapper, [(4096, 5), (0, 1)])
        ordered = FcfsScheduler().decisions(_queued(reqs), channel)
        assert ordered[0].request.arrival_cycle == 1

    def test_frfcfs_prefers_open_row(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        cfg = channel.config
        hit_addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        miss_addr = mapper.address_for_row(0, 0, 0, 0, 9, column=0)
        coord = mapper.map(hit_addr)
        channel.issue(Command(CommandType.ACT, rank=coord.rank,
                              bank_group=coord.bank_group, bank=coord.bank,
                              row=coord.row), 0)
        reqs = _decorated_requests(channel, mapper,
                                   [(miss_addr, 0), (hit_addr, 10)])
        decision = FrFcfsScheduler().decisions(_queued(reqs), channel)[0]
        assert decision.is_row_hit
        assert decision.request.address == hit_addr

    def test_cap_limits_hit_reordering(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        scheduler = FrFcfsCapScheduler(cap=2)
        hit_addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        miss_addr = mapper.address_for_row(0, 0, 0, 0, 9, column=0)
        coord = mapper.map(hit_addr)
        channel.issue(Command(CommandType.ACT, rank=coord.rank,
                              bank_group=coord.bank_group, bank=coord.bank,
                              row=coord.row), 0)
        miss = _decorated_requests(channel, mapper, [(miss_addr, 0)])[0]
        hits = _decorated_requests(
            channel, mapper,
            [(hit_addr + 64 * i, 10 + i) for i in range(4)],
        )
        queue = _queued([miss] + hits)
        served_hits = 0
        for step in range(3):
            decision = scheduler.decisions(queue, channel)[0]
            if decision.is_row_hit:
                served_hits += 1
                _serve_hit(channel, scheduler, queue, decision,
                           100 * (step + 1))
            else:
                break
        # After `cap` hits bypassed the older miss, the miss must win.
        assert served_hits == 2
        final = scheduler.decisions(queue, channel)[0]
        assert not final.is_row_hit
        assert final.request is miss

    def test_cap_resets_after_miss_served(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        scheduler = FrFcfsCapScheduler(cap=1)
        addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        req = _decorated_requests(channel, mapper, [(addr, 0)])[0]
        from repro.controller.scheduler import SchedulerDecision
        scheduler.notify_served(SchedulerDecision(req, True, "row-hit"))
        assert scheduler._hits_over_misses[req.coordinate.bank_key] == 1
        scheduler.notify_served(SchedulerDecision(req, False, "miss"))
        assert scheduler._hits_over_misses[req.coordinate.bank_key] == 0

    def test_empty_candidates(self, channel_and_mapper):
        channel, _ = channel_and_mapper
        assert FrFcfsCapScheduler().decisions(RequestQueue(), channel) == []

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            FrFcfsCapScheduler(cap=0)


class TestMemoryRequest:
    def test_latency_and_completion_callback(self):
        fired = []
        req = read_request(64, thread_id=2, arrival_cycle=10)
        req.on_complete = lambda r, c: fired.append((r, c))
        req.complete(50)
        assert req.latency == 40
        assert fired == [(req, 50)]

    def test_write_request_flag(self):
        from repro.controller.request import write_request
        assert write_request(0).is_write
        assert not read_request(0).is_write

    def test_unique_ids(self):
        assert read_request(0).request_id != read_request(0).request_id
