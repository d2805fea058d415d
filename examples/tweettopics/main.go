// Command tweettopics implements Example 2.1 of the paper end to end: an
// analyst computes the top-k popular Twitter topics per (city, day) and
// enriches them with news events. The job touches three indices at three
// different points of the MapReduce data flow:
//
//  1. a user-profile index (distributed KV store) looked up BEFORE Map to
//     resolve each tweet's city;
//  2. a knowledge-base cloud service invoked BETWEEN Map and Reduce that
//     dynamically computes a topic from extracted keywords (a classifier:
//     the set of valid keys is infinite);
//  3. an event database looked up AFTER Reduce to attach important news
//     events to each (city, day) group.
//
// Run with:
//
//	go run ./examples/tweettopics
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"efind"
)

const topK = 3

func main() {
	cfg := efind.DefaultConfig()
	cfg.TaskStartup = 0.01
	cluster := efind.NewCluster(cfg)
	cluster.FS.ChunkTarget = 8 << 10

	userProfiles, events := buildIndices(cluster)
	topics := cluster.NewCloudService("knowledge-base", 3, 0.002, classifyTopic)
	input := buildTweets(cluster)

	// Step 1: look up the user account in the profile index to obtain the
	// city (placed before Map).
	profileOp := efind.NewOperator("user-profile",
		func(in efind.Pair) efind.PreResult {
			user := strings.SplitN(in.Value, "\t", 2)[0]
			return efind.OneKey(in, user)
		},
		func(pair efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
			if len(results[0]) == 0 || len(results[0][0].Values) == 0 {
				return
			}
			city := extractCity(results[0][0].Values[0])
			emit(efind.Pair{Key: pair.Key, Value: city + "\t" + pair.Value})
		})
	profileOp.AddIndex(userProfiles)

	// Step 3: convert extracted keywords into a topic via the knowledge
	// base (placed between Map and Reduce).
	topicOp := efind.NewOperator("topic-category",
		func(in efind.Pair) efind.PreResult {
			// Map emitted key=(city|day), value=keywords.
			return efind.OneKey(in, in.Value)
		},
		func(pair efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
			if len(results[0]) == 0 || len(results[0][0].Values) == 0 {
				return
			}
			emit(efind.Pair{Key: pair.Key, Value: results[0][0].Values[0]})
		})
	topicOp.AddIndex(topics)

	// Step 5: enrich each (city, day) result with important events
	// (placed after Reduce).
	eventOp := efind.NewOperator("important-events",
		func(in efind.Pair) efind.PreResult {
			return efind.OneKey(in, in.Key)
		},
		func(pair efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
			event := "no major events"
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				event = strings.Join(results[0][0].Values, "; ")
			}
			emit(efind.Pair{Key: pair.Key, Value: pair.Value + "  [events: " + event + "]"})
		})
	eventOp.AddIndex(events)

	conf := &efind.IndexJobConf{
		Name:  "tweet-topics",
		Input: input,
		Mode:  efind.ModeDynamic,
		// Step 2: Map extracts keywords and the (city, day) group key.
		Mapper: func(_ *efind.TaskContext, in efind.Pair, emit efind.Emit) {
			// Value layout after the profile operator:
			// city \t user \t tweetid \t timestamp \t message.
			f := strings.Split(in.Value, "\t")
			if len(f) < 5 {
				return
			}
			city, ts, message := f[0], f[3], f[4]
			day, err := strconv.Atoi(ts)
			if err != nil {
				return
			}
			emit(efind.Pair{
				Key:   fmt.Sprintf("%s|day-%02d", city, day%30),
				Value: extractKeywords(message),
			})
		},
		NumReduce: 12,
		// Step 4: group by (city, day) and compute the top-k topics.
		Reducer: func(_ *efind.TaskContext, key string, values []string, emit efind.Emit) {
			counts := map[string]int{}
			for _, topic := range values {
				counts[topic]++
			}
			type tc struct {
				topic string
				n     int
			}
			list := make([]tc, 0, len(counts))
			for topic, n := range counts {
				list = append(list, tc{topic, n})
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].n != list[j].n {
					return list[i].n > list[j].n
				}
				return list[i].topic < list[j].topic
			})
			if len(list) > topK {
				list = list[:topK]
			}
			parts := make([]string, 0, len(list))
			for _, e := range list {
				parts = append(parts, fmt.Sprintf("%s(%d)", e.topic, e.n))
			}
			emit(efind.Pair{Key: key, Value: strings.Join(parts, " ")})
		},
	}
	conf.AddHeadIndexOperator(profileOp)
	conf.AddBodyIndexOperator(topicOp)
	conf.AddTailIndexOperator(eventOp)

	res, err := cluster.Submit(conf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tweet-topics finished: %.3f virtual seconds, %d MapReduce job(s), plan %v\n",
		res.VTime, res.JobsRun, res.Plan)
	if res.Replanned {
		fmt.Printf("runtime re-optimized at the %s phase\n", res.ReplanPhase)
	}
	fmt.Printf("knowledge-base service was invoked %d times\n\n", topics.Calls())

	out := res.Output.All()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, r := range out {
		if i == 12 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-24s %s\n", r.Key, r.Value)
	}
}

// buildIndices loads the user-profile store and the event database.
func buildIndices(cluster *efind.Cluster) (*efind.KVStore, *efind.KVStore) {
	cities := []string{"Beijing", "NewYork", "London", "Paris", "Tokyo", "Sydney"}
	profiles := cluster.NewKVStore("user-profiles", 32, 3, 0.0008)
	for u := 0; u < 400; u++ {
		city := cities[u%len(cities)]
		profiles.Put(fmt.Sprintf("@user%03d", u), fmt.Sprintf("name=User%03d;city=%s;since=2009", u, city))
	}
	events := cluster.NewKVStore("event-db", 8, 3, 0.0005)
	for _, city := range cities {
		for day := 0; day < 30; day += 3 {
			events.Put(fmt.Sprintf("%s|day-%02d", city, day),
				fmt.Sprintf("%s street festival on day %d", city, day))
		}
	}
	return profiles, events
}

// buildTweets writes the main input: user \t tweetid \t timestamp \t message.
func buildTweets(cluster *efind.Cluster) *efind.File {
	words := []string{"election", "football", "earthquake", "concert", "market",
		"rain", "startup", "festival", "traffic", "olympics"}
	recs := make([]efind.Record, 12000)
	for i := range recs {
		msg := fmt.Sprintf("the %s and the %s today", words[i%len(words)], words[(i/3)%len(words)])
		recs[i] = efind.Record{
			Key:   fmt.Sprintf("tweet-%06d", i),
			Value: fmt.Sprintf("@user%03d\tt%06d\t%d\t%s", i%400, i, i%30, msg),
		}
	}
	f, err := cluster.CreateFile("tweets", recs)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// extractCity pulls the city field from a profile record.
func extractCity(profile string) string {
	for _, kv := range strings.Split(profile, ";") {
		if strings.HasPrefix(kv, "city=") {
			return strings.TrimPrefix(kv, "city=")
		}
	}
	return "unknown"
}

// extractKeywords is the Map step's keyword extraction.
func extractKeywords(message string) string {
	var kws []string
	for _, w := range strings.Fields(message) {
		if len(w) > 4 { // drop stop-words
			kws = append(kws, w)
		}
	}
	sort.Strings(kws)
	return strings.Join(kws, ",")
}

// classifyTopic is the knowledge-base service's dynamic computation: it
// "classifies" a keyword set into a topic (a deterministic stand-in for
// the paper's machine-learning classifiers).
func classifyTopic(keywords string) []string {
	topics := []string{"politics", "sports", "disaster", "culture", "economy", "weather", "tech"}
	h := 0
	for _, b := range []byte(keywords) {
		h = h*31 + int(b)
	}
	if h < 0 {
		h = -h
	}
	return []string{topics[h%len(topics)]}
}
